// darl/net/wire.hpp
//
// The actor–learner message schema and its codec (DESIGN.md §17). Each
// message rides one frame (darl/net/frame.hpp); payloads are the same
// text serialization the checkpoint-v2 format uses — every double is
// written at round-trip precision (17 significant digits), so a value
// decoded on the far side is *bitwise* the value encoded, which is what
// keeps the distributed runtime's campaign CSVs byte-identical to the
// in-process path. Integrity comes from the frame digest, so the codec
// itself can stay a plain token stream. A digest proves nothing about a
// hostile peer, though: every decoder checks each declared count against
// the unread payload bytes before allocating and throws WireError.
//
// Protocol (learner-driven, synchronous per iteration):
//
//   actor -> learner   Hello{node}                      (once, on connect)
//   learner -> actor   Job{algo, sac bounds, seed,      (once)
//                          topology, env}
//   learner -> actor   Weights{version, checkpoint}     (per iteration)
//   actor -> learner   Batch{worker, version, cost,     (one per worker
//                            episodes, transitions}      per iteration)
//   learner -> actor   Stop{}                           (once)
//   actor -> learner   Bye{node}                        (once)

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "darl/env/wrappers.hpp"
#include "darl/net/frame.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/sac.hpp"
#include "darl/rl/types.hpp"

namespace darl::net {

/// Frame `type` values. Kept dense and stable: the wire is spoken between
/// binaries built from the same tree, but a decoder still rejects unknown
/// types with a typed error rather than guessing.
enum class MsgType : std::uint32_t {
  Hello = 1,
  Job = 2,
  Weights = 3,
  Batch = 4,
  Stop = 5,
  Bye = 6,
};

const char* msg_type_name(MsgType type);

/// Raised when a frame payload does not parse as its message type.
class WireError : public NetError {
 public:
  explicit WireError(const std::string& what_arg) : NetError(what_arg) {}
};

inline constexpr std::uint64_t kProtocolVersion = 2;

/// Actor's opening handshake.
struct HelloMsg {
  std::uint64_t node = 0;
  std::uint64_t protocol = kProtocolVersion;
};

/// Everything an actor process needs to build its rollout workers. The
/// environment travels as an opaque spec string resolved by the worker
/// binary's registered resolver (darl/net stays case-study-agnostic).
struct JobMsg {
  rl::AlgoKind algo = rl::AlgoKind::PPO;
  std::vector<std::size_t> hidden;
  /// SAC's log-std head bounds: the only hyperparameters a SAC actor's
  /// sampling reads besides its architecture and weights.
  double sac_log_std_min = rl::SacConfig{}.log_std_min;
  double sac_log_std_max = rl::SacConfig{}.log_std_max;
  std::uint64_t seed = 0;
  std::uint64_t node = 0;   ///< which node this actor plays
  std::uint64_t nodes = 0;  ///< total deployment size
  std::uint64_t cores = 0;  ///< workers per node
  std::uint64_t per_worker = 0;  ///< transitions per worker per iteration
  std::uint64_t obs_dim = 0;     ///< interface cross-check
  std::uint64_t action_dim = 0;
  std::string env_spec;
};

/// One versioned parameter publication; `checkpoint` is the full
/// checkpoint-v2 text (its own digest included), so the payload a remote
/// actor loads is verified twice and preserves algorithm extras (e.g.
/// PPO's state-independent log-std tail) that a serving spec would strip.
struct WeightsMsg {
  std::uint64_t version = 0;
  std::string checkpoint;
};

/// One worker's iteration result streamed back to the learner.
struct BatchMsg {
  std::uint64_t worker = 0;   ///< global worker id
  std::uint64_t version = 0;  ///< parameter version the worker acted with
  double env_cost_units = 0.0;
  std::uint64_t inferences = 0;
  std::uint64_t steps = 0;
  /// Episodes finished during this collect (delta, not cumulative).
  std::vector<env::EpisodeRecord> episodes;
  std::vector<rl::Transition> transitions;
};

struct ByeMsg {
  std::uint64_t node = 0;
};

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(const std::string& payload);
std::string encode_job(const JobMsg& msg);
JobMsg decode_job(const std::string& payload);
std::string encode_weights(const WeightsMsg& msg);
WeightsMsg decode_weights(const std::string& payload);
std::string encode_batch_msg(const BatchMsg& msg);
BatchMsg decode_batch_msg(const std::string& payload);
std::string encode_bye(const ByeMsg& msg);
ByeMsg decode_bye(const std::string& payload);

/// One connected peer: frame I/O plus net.* transport metrics
/// (net.frames_sent/received, net.bytes_sent/received). Reading and
/// writing may happen on two different threads concurrently (the runtime
/// pairs one reader with one writer per channel); neither side locks.
class MsgChannel {
 public:
  MsgChannel() = default;
  explicit MsgChannel(OwnedFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  /// Send one message; throws FrameError on transport failure.
  void send(MsgType type, const std::string& payload);

  /// Receive the next message. Returns false on clean EOF; throws
  /// FrameError on truncation/corruption/timeout.
  bool recv(MsgType& type, std::string& payload);

  /// Expect exactly `want` next; throws WireError on anything else
  /// (including clean EOF).
  std::string expect(MsgType want);

 private:
  OwnedFd fd_;
};

}  // namespace darl::net
