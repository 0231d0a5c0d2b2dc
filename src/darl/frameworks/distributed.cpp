#include "darl/frameworks/distributed.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "darl/common/error.hpp"
#include "darl/net/param_server.hpp"
#include "darl/net/queue.hpp"
#include "darl/net/socket.hpp"
#include "darl/net/wire.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/rl/checkpoint.hpp"

namespace darl::frameworks {

namespace {

/// Directory holding the running executable (via /proc/self/exe), used to
/// resolve the default darl_worker binary next to darl_study.
std::string self_exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// Fresh per-process Unix-socket endpoint for runs that did not pick one.
std::string auto_endpoint() {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << "unix:/tmp/darl_net_" << ::getpid() << "_" << counter.fetch_add(1)
     << ".sock";
  return os.str();
}

/// fork + execv. The child execs immediately (async-signal-safe path only),
/// which keeps the spawn safe in a process that already runs threads (the
/// obs exporter, collection workers).
pid_t spawn_process(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  DARL_CHECK(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    // exec failed; nothing of the parent may run in this child.
    std::_Exit(127);
  }
  return pid;
}

/// waitpid with EINTR retry; exit code, 128+signal, or -1.
int wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// Kills every still-owned child on scope exit (error paths); the normal
/// path waits for clean exits and disarms.
class ChildReaper {
 public:
  ~ChildReaper() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      wait_child(pid);
    }
  }
  void add(pid_t pid) { pids_.push_back(pid); }
  /// Graceful wait; throws when a child failed.
  void wait_all() {
    while (!pids_.empty()) {
      const pid_t pid = pids_.back();
      pids_.pop_back();
      const int code = wait_child(pid);
      if (code != 0) {
        throw net::NetError("actor process exited with status " +
                            std::to_string(code));
      }
    }
  }

 private:
  std::vector<pid_t> pids_;
};

/// Reader-side state for one actor connection. The reader thread is the
/// only writer of `error`/`saw_bye` until it exits; the learner thread
/// reads them only after join(), so the join is the synchronization.
struct ActorLink {
  net::MsgChannel channel;
  net::BoundedQueue<net::BatchMsg> inbox;
  std::thread reader;
  std::string error;
  bool saw_bye = false;

  explicit ActorLink(std::size_t inbox_capacity) : inbox(inbox_capacity) {}
};

net::BatchMsg to_msg(BatchRecord&& rec) {
  net::BatchMsg msg;
  msg.worker = rec.batch.worker_id;
  msg.version = rec.version;
  msg.env_cost_units = rec.cost.env_cost_units;
  msg.inferences = rec.cost.inferences;
  msg.steps = rec.cost.steps;
  msg.episodes = std::move(rec.new_episodes);
  msg.transitions = std::move(rec.batch.transitions);
  return msg;
}

BatchRecord from_msg(net::BatchMsg&& msg, std::size_t node) {
  BatchRecord rec;
  rec.batch.worker_id = static_cast<std::size_t>(msg.worker);
  rec.batch.transitions = std::move(msg.transitions);
  rec.node = node;
  rec.version = msg.version;
  rec.cost = CollectCost{msg.env_cost_units,
                         static_cast<std::size_t>(msg.inferences),
                         static_cast<std::size_t>(msg.steps)};
  rec.new_episodes = std::move(msg.episodes);
  return rec;
}

/// The transport: one actor process per remote node behind a framed
/// socket, weights out through the parameter server, batches in through
/// one reader thread and bounded inbox per connection.
class ActorFleet final : public RemoteNodes {
 public:
  ActorFleet(const DistributedOptions& options, const TrainRequest& request)
      : options_(options), request_(request) {}

  /// Error paths: unblock and reap the readers before ~ActorLink (a reader
  /// may be parked in recv or in a full inbox's push); ChildReaper then
  /// kills any spawned actors.
  ~ActorFleet() override {
    if (finished_) return;
    for (auto& link : links_) {
      if (link) {
        link->inbox.close();
        net::shutdown_socket(link->channel.fd());
      }
    }
    join_readers();
  }

  ActorFleet(const ActorFleet&) = delete;
  ActorFleet& operator=(const ActorFleet&) = delete;

  void start(const IterationPlan& plan) override {
    plan_ = plan;
    const std::size_t nodes = plan.nodes;
    listener_ = net::listen_endpoint(
        net::Endpoint::parse(options_.endpoint.empty() ? auto_endpoint()
                                                       : options_.endpoint),
        static_cast<int>(nodes));
    const std::string bound = listener_.endpoint().str();

    if (options_.spawn_actors) {
      const std::string bin = options_.worker_bin.empty()
                                  ? self_exe_dir() + "/darl_worker"
                                  : options_.worker_bin;
      for (std::size_t node = 1; node < nodes; ++node) {
        children_.add(spawn_process(
            {bin, "--role", "actor", "--connect", bound, "--node",
             std::to_string(node), "--connect-timeout",
             std::to_string(options_.connect_timeout_s), "--io-timeout",
             std::to_string(options_.io_timeout_s)}));
      }
    }

    // Accept one connection per remote node; a missing actor surfaces as a
    // timeout here, not a hang (SO_RCVTIMEO bounds accept on Linux).
    net::set_recv_timeout(listener_.fd(), options_.connect_timeout_s);
    links_.resize(nodes);  // [0] unused
    for (std::size_t i = 1; i < nodes; ++i) {
      net::OwnedFd conn = net::accept_retry(listener_.fd());
      if (!conn.valid()) {
        throw net::NetError("timed out waiting for " + std::to_string(nodes - 1) +
                            " actor(s) on " + bound);
      }
      DARL_COUNTER_ADD("net.accepts", 1);
      net::set_io_timeout(conn.get(), options_.io_timeout_s);
      net::MsgChannel ch(std::move(conn));
      const net::HelloMsg hello =
          net::decode_hello(ch.expect(net::MsgType::Hello));
      DARL_CHECK(hello.node >= 1 && hello.node < nodes,
                 "actor announced node " << hello.node << " outside 1.."
                                         << nodes - 1);
      DARL_CHECK(links_[hello.node] == nullptr,
                 "two actors announced node " << hello.node);
      auto link = std::make_unique<ActorLink>(/*inbox_capacity=*/plan.cores * 2);
      link->channel = std::move(ch);
      links_[hello.node] = std::move(link);
    }

    // Ship each actor its job.
    net::JobMsg job;
    job.algo = request_.algo.kind;
    job.hidden = request_.algo.hidden();
    job.sac_log_std_min = request_.algo.sac.log_std_min;
    job.sac_log_std_max = request_.algo.sac.log_std_max;
    job.seed = request_.seed;
    job.nodes = nodes;
    job.cores = plan.cores;
    job.per_worker = plan.per_worker;
    job.obs_dim = plan.obs_dim;
    job.action_dim = plan.action_space.action_dim();
    job.env_spec = request_.env_spec;
    for (std::size_t node = 1; node < nodes; ++node) {
      job.node = node;
      links_[node]->channel.send(net::MsgType::Job, net::encode_job(job));
    }

    // One reader thread per connection: the only thread that recv()s on the
    // channel (the learner thread only send()s — the MsgChannel contract).
    for (std::size_t node = 1; node < nodes; ++node) {
      ActorLink* link = links_[node].get();
      link->reader = std::thread([link, this] {
        try {
          net::MsgType type;
          std::string payload;
          while (link->channel.recv(type, payload)) {
            if (type == net::MsgType::Batch) {
              link->inbox.push(net::decode_batch_msg(payload));
            } else if (type == net::MsgType::Bye) {
              link->saw_bye = true;
              break;
            } else {
              link->error = std::string("unexpected ") + net::msg_type_name(type);
              break;
            }
          }
          if (!link->saw_bye && link->error.empty() &&
              !stop_sent_.load(std::memory_order_acquire)) {
            link->error = "actor closed the connection mid-run";
          }
        } catch (const std::exception& e) {
          link->error = e.what();
        }
        link->inbox.close();
      });
    }

    // The parameter-server endpoint: every snapshot goes into the
    // serve::PolicyStore hot-swap chain and the retention ring the wire
    // ships from.
    pserver_ = std::make_unique<net::ParamServer>(
        request_.algo.kind, plan.obs_dim, plan.action_space.action_dim(),
        plan.action_space, request_.algo.hidden());
  }

  void publish(const Vec& params) override { pserver_->publish(params); }

  /// Weights travel as checkpoint-v2 text, bitwise round-trip.
  void ship(std::uint64_t version) override {
    net::WeightsMsg weights;
    weights.version = version;
    weights.checkpoint = pserver_->checkpoint_text(version);
    const std::string payload = net::encode_weights(weights);
    for (std::size_t node = 1; node < plan_.nodes; ++node) {
      links_[node]->channel.send(net::MsgType::Weights, payload);
    }
  }

  /// One batch per remote worker, pulled from the bounded inboxes (a slow
  /// learner backpressures the actors through the transport).
  std::vector<BatchRecord> gather() override {
    std::vector<BatchRecord> records;
    records.reserve((plan_.nodes - 1) * plan_.cores);
    for (std::size_t node = 1; node < plan_.nodes; ++node) {
      for (std::size_t c = 0; c < plan_.cores; ++c) {
        net::BatchMsg msg;
        const net::QueueOutcome got =
            links_[node]->inbox.pop(msg, options_.io_timeout_s);
        if (got != net::QueueOutcome::Ok) {
          const std::string why = got == net::QueueOutcome::TimedOut
                                      ? "timed out waiting for a batch"
                                      : links_[node]->error;
          throw net::NetError("actor node " + std::to_string(node) + ": " + why);
        }
        records.push_back(from_msg(std::move(msg), node));
      }
    }
    return records;
  }

  /// Orderly shutdown: Stop out, Bye back, readers drain, actors exit 0.
  void finish() override {
    stop_sent_.store(true, std::memory_order_release);
    for (std::size_t node = 1; node < plan_.nodes; ++node) {
      links_[node]->channel.send(net::MsgType::Stop, std::string());
    }
    join_readers();
    for (std::size_t node = 1; node < plan_.nodes; ++node) {
      if (!links_[node]->error.empty()) {
        throw net::NetError("actor node " + std::to_string(node) + ": " +
                            links_[node]->error);
      }
      DARL_CHECK(links_[node]->saw_bye, "actor node " << node << " never sent Bye");
    }
    if (options_.spawn_actors) children_.wait_all();
    finished_ = true;
  }

 private:
  void join_readers() {
    for (auto& link : links_) {
      if (link && link->reader.joinable()) link->reader.join();
    }
  }

  const DistributedOptions& options_;
  const TrainRequest& request_;
  IterationPlan plan_;
  net::Listener listener_;
  ChildReaper children_;
  std::atomic<bool> stop_sent_{false};  // read by the reader threads
  std::vector<std::unique_ptr<ActorLink>> links_;
  std::unique_ptr<net::ParamServer> pserver_;
  bool finished_ = false;
};

}  // namespace

DistributedRllibBackend::DistributedRllibBackend(DistributedOptions options,
                                                 BackendCosts costs)
    : BackendBase(costs), options_(std::move(options)) {}

TrainResult DistributedRllibBackend::run(const TrainRequest& request) {
  DARL_CHECK(request.deployment.nodes >= 2,
             "DistributedRllibBackend needs >= 2 nodes (single-node jobs "
             "stay in-process)");
  DARL_CHECK(!request.env_spec.empty(),
             "distributed run needs TrainRequest::env_spec (the remote "
             "actors rebuild the environment from it)");
  ActorFleet fleet(options_, request);
  return run_engine(request, &fleet);
}

std::size_t run_actor(const std::string& endpoint, std::size_t node,
                      const EnvSpecResolver& resolver,
                      double connect_timeout_s, double io_timeout_s) {
  DARL_CHECK(node >= 1, "actor node must be >= 1 (node 0 is the learner)");
  DARL_CHECK(resolver != nullptr, "actor needs an env-spec resolver");

  net::OwnedFd fd = net::connect_endpoint(net::Endpoint::parse(endpoint),
                                          connect_timeout_s);
  net::set_io_timeout(fd.get(), io_timeout_s);
  net::MsgChannel channel(std::move(fd));
  DARL_COUNTER_ADD("net.connects", 1);

  net::HelloMsg hello;
  hello.node = node;
  channel.send(net::MsgType::Hello, net::encode_hello(hello));
  const net::JobMsg job = net::decode_job(channel.expect(net::MsgType::Job));
  DARL_CHECK(job.node == node, "job addressed to node " << job.node
                                                        << ", this is node "
                                                        << node);
  DARL_CHECK(job.cores >= 1 && job.nodes > node, "malformed job topology");

  env::EnvFactory factory = resolver(job.env_spec);
  DARL_CHECK(factory != nullptr, "env-spec resolver rejected the spec");
  auto probe = factory();
  const std::size_t obs_dim = probe->observation_space().dim();
  const env::ActionSpace action_space = probe->action_space();
  probe.reset();
  DARL_CHECK(obs_dim == job.obs_dim &&
                 action_space.action_dim() == job.action_dim,
             "environment interface mismatch: local " << obs_dim << "/"
                                                      << action_space.action_dim()
                                                      << ", job " << job.obs_dim
                                                      << "/" << job.action_dim);

  // Inference-only algorithm shell: act behavior is fully determined by
  // the architecture, SAC's log-std bounds and the synced parameters, so
  // learner-side hyperparameters never need to travel.
  rl::AlgorithmSpec spec;
  spec.kind = job.algo;
  spec.ppo.hidden = job.hidden;
  spec.sac.hidden = job.hidden;
  spec.impala.hidden = job.hidden;
  spec.sac.log_std_min = job.sac_log_std_min;
  spec.sac.log_std_max = job.sac_log_std_max;
  auto algo = rl::make_algorithm(spec, obs_dim, action_space,
                                 Rng(job.seed).split(1).seed());

  // This node's workers, with their *global* ids and the exact per-id
  // seed streams the learner derives.
  const std::size_t cores = job.cores;
  auto workers = make_workers(factory, *algo, job.seed, node * cores, cores);

  // Outbound queue: collection threads block once two batches are in
  // flight, so a slow learner throttles the actor instead of growing an
  // unbounded send buffer.
  net::BoundedQueue<net::BatchMsg> outbox(2);
  std::string send_error;
  std::thread sender([&] {
    try {
      net::BatchMsg msg;
      while (outbox.pop(msg) == net::QueueOutcome::Ok) {
        channel.send(net::MsgType::Batch, net::encode_batch_msg(msg));
      }
    } catch (const std::exception& e) {
      send_error = e.what();
      outbox.close();
    }
  });

  std::size_t iterations = 0;
  bool stopped = false;
  try {
    net::MsgType type;
    std::string payload;
    while (channel.recv(type, payload)) {
      if (type == net::MsgType::Stop) {
        stopped = true;
        break;
      }
      if (type != net::MsgType::Weights) {
        throw net::WireError(std::string("actor expected Weights, got ") +
                             net::msg_type_name(type));
      }
      const net::WeightsMsg weights = net::decode_weights(payload);
      std::istringstream ck_in(weights.checkpoint);
      const rl::Checkpoint ck = rl::load_checkpoint(ck_in);
      DARL_CHECK(ck.kind == job.algo && ck.obs_dim == obs_dim,
                 "shipped checkpoint does not match the job interface");

      std::vector<std::thread> threads;
      threads.reserve(cores);
      for (std::size_t c = 0; c < cores; ++c) {
        threads.emplace_back([&, c] {
          RolloutWorker& w = *workers[c];
          w.sync(ck.params);
          outbox.push(
              to_msg(w.collect_record(job.per_worker, node, weights.version)));
        });
      }
      for (auto& th : threads) th.join();
      // A dead sender shows up as a closed outbox; its reason
      // (send_error) is only safe to read after the join below.
      if (outbox.closed()) break;
      ++iterations;
    }
  } catch (...) {
    outbox.close();
    if (sender.joinable()) sender.join();
    throw;
  }

  outbox.close();
  sender.join();
  if (!send_error.empty()) throw net::NetError(send_error);
  if (!stopped) throw net::NetError("learner vanished before sending Stop");
  net::ByeMsg bye;
  bye.node = node;
  channel.send(net::MsgType::Bye, net::encode_bye(bye));
  return iterations;
}

std::unique_ptr<Backend> make_distributed_backend(
    const DistributedOptions& options) {
  return std::make_unique<DistributedRllibBackend>(options);
}

std::unique_ptr<Backend> make_distributed_backend(
    const DistributedOptions& options, const BackendCosts& costs) {
  return std::make_unique<DistributedRllibBackend>(options, costs);
}

}  // namespace darl::frameworks
