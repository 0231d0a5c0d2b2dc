#include "darl/core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "darl/common/ascii_plot.hpp"
#include "darl/common/csv.hpp"
#include "darl/common/error.hpp"
#include "darl/common/parse.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/table.hpp"
#include "darl/core/pareto.hpp"
#include "darl/core/stability.hpp"

namespace darl::core {
namespace {

std::vector<std::string> param_columns(const CaseStudyDef& def,
                                       const std::vector<std::string>& order) {
  if (!order.empty()) return order;
  std::vector<std::string> names;
  for (const auto& d : def.space.domains()) names.push_back(d.name());
  return names;
}

}  // namespace

std::string render_trial_table(const CaseStudyDef& def,
                               const std::vector<TrialRecord>& trials,
                               const std::vector<std::string>& param_order) {
  const auto params = param_columns(def, param_order);
  const bool any_failed =
      std::any_of(trials.begin(), trials.end(),
                  [](const TrialRecord& t) { return !t.ok(); });
  TextTable table;
  std::vector<std::string> cols{"#"};
  std::vector<Align> aligns{Align::Right};
  for (const auto& p : params) {
    cols.push_back(p);
    aligns.push_back(Align::Left);
  }
  for (const auto& m : def.metrics.defs()) {
    cols.push_back(m.unit.empty() ? m.name : m.name + " (" + m.unit + ")");
    aligns.push_back(Align::Right);
  }
  if (any_failed) {
    cols.push_back("status");
    aligns.push_back(Align::Left);
  }
  table.set_columns(cols, aligns);

  for (const auto& t : trials) {
    std::vector<std::string> row;
    row.push_back(std::to_string(t.id + 1));  // paper numbering is 1-based
    for (const auto& p : params) {
      row.push_back(t.config.has(p) ? param_value_to_string(t.config.get(p))
                                    : "-");
    }
    for (const auto& m : def.metrics.defs()) {
      const auto it = t.metrics.find(m.name);
      row.push_back(it == t.metrics.end() ? "-" : fixed(it->second, 2));
    }
    if (any_failed) row.push_back(trial_status_name(t.status));
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string render_pareto_plot(const CaseStudyDef& def,
                               const std::vector<TrialRecord>& trials,
                               const std::string& metric_x,
                               const std::string& metric_y,
                               const std::string& title,
                               std::vector<std::size_t>* front_trial_ids) {
  const MetricDef& mx = def.metrics.def(metric_x);
  const MetricDef& my = def.metrics.def(metric_y);

  std::vector<std::vector<double>> points;
  std::vector<std::size_t> ids;
  for (const auto& t : trials) {
    if (!t.ok() || t.budget_fraction < 1.0) continue;
    const auto ix = t.metrics.find(metric_x);
    const auto iy = t.metrics.find(metric_y);
    DARL_CHECK(ix != t.metrics.end() && iy != t.metrics.end(),
               "trial " << t.id << " lacks plotted metrics");
    points.push_back({ix->second, iy->second});
    ids.push_back(t.id);
  }
  const auto front = pareto_front(points, {mx.sense, my.sense});
  if (front_trial_ids != nullptr) {
    front_trial_ids->clear();
    for (std::size_t f : front) front_trial_ids->push_back(ids[f]);
  }

  std::vector<PlotPoint> plot;
  plot.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PlotPoint p;
    p.x = points[i][0];
    p.y = points[i][1];
    p.label = std::to_string(ids[i] + 1);
    p.highlight = std::find(front.begin(), front.end(), i) != front.end();
    plot.push_back(p);
  }
  PlotOptions opts;
  opts.title = title;
  opts.x_label = mx.unit.empty() ? metric_x : metric_x + " (" + mx.unit + ")";
  opts.y_label = my.unit.empty() ? metric_y : metric_y + " (" + my.unit + ")";
  return render_scatter(plot, opts);
}

namespace {

constexpr const char* kPhaseKeys[] = {"CollectSeconds", "LearnSeconds",
                                      "SyncSeconds"};

bool has_phase_metrics(const TrialRecord& t) {
  for (const char* key : kPhaseKeys) {
    if (t.metrics.find(key) == t.metrics.end()) return false;
  }
  return true;
}

}  // namespace

std::string render_phase_breakdown(const std::vector<TrialRecord>& trials) {
  const bool any = std::any_of(trials.begin(), trials.end(), has_phase_metrics);
  if (!any) return "";

  TextTable table;
  table.set_columns({"#", "collect (s)", "learn (s)", "sync (s)", "total (s)",
                     "collect %"},
                    {Align::Right, Align::Right, Align::Right, Align::Right,
                     Align::Right, Align::Right});
  for (const auto& t : trials) {
    if (!has_phase_metrics(t)) continue;
    const double collect = t.metrics.at("CollectSeconds");
    const double learn = t.metrics.at("LearnSeconds");
    const double sync = t.metrics.at("SyncSeconds");
    const double total = collect + learn + sync;
    table.add_row({std::to_string(t.id + 1), fixed(collect, 3), fixed(learn, 3),
                   fixed(sync, 3), fixed(total, 3),
                   total > 0.0 ? fixed(100.0 * collect / total, 1) : "-"});
  }
  return "Per-trial phase breakdown (host seconds):\n" + table.render();
}

void write_trials_csv(std::ostream& out, const CaseStudyDef& def,
                      const std::vector<TrialRecord>& trials) {
  // max_digits10 significant digits round-trip doubles exactly; anything
  // less lets cache loads flip low-order bits (and downstream Pareto ties).
  constexpr int kDoubleDigits = std::numeric_limits<double>::max_digits10;
  CsvWriter csv(out);
  std::vector<std::string> header{"id", "budget_fraction", "status",
                                  "attempts", "error", "config"};
  for (const auto& m : def.metrics.defs()) header.push_back(m.name);
  csv.header(header);
  for (const auto& t : trials) {
    csv.begin_row();
    csv.integer(static_cast<long long>(t.id));
    csv.number(t.budget_fraction, kDoubleDigits);
    csv.field(trial_status_name(t.status));
    csv.integer(static_cast<long long>(t.attempts));
    csv.field(t.error);
    csv.field(t.config.describe());
    for (const auto& m : def.metrics.defs()) {
      const auto it = t.metrics.find(m.name);
      if (it == t.metrics.end()) {
        DARL_CHECK(!t.ok(), "trial missing metric '" << m.name << "'");
        csv.field("");
      } else {
        csv.number(it->second, kDoubleDigits);
      }
    }
    csv.end_row();
  }
}

LearningConfiguration parse_configuration(const ParamSpace& space,
                                          const std::string& description) {
  LearningConfiguration config;
  std::stringstream ss(description);
  std::string piece;
  while (std::getline(ss, piece, ',')) {
    // trim
    const auto b = piece.find_first_not_of(' ');
    const auto e = piece.find_last_not_of(' ');
    DARL_CHECK(b != std::string::npos, "empty configuration fragment");
    piece = piece.substr(b, e - b + 1);
    const auto eq = piece.find('=');
    DARL_CHECK(eq != std::string::npos, "malformed fragment '" << piece << "'");
    const std::string key = piece.substr(0, eq);
    const std::string val = piece.substr(eq + 1);
    const ParamDomain& dom = space.domain(key);
    if (dom.is_categorical()) {
      config.set(key, val);
      continue;
    }
    std::size_t used = 0;
    if (dom.is_integer()) {
      config.set(key, static_cast<std::int64_t>(std::stoll(val, &used)));
    } else {
      config.set(key, std::stod(val, &used));
    }
    DARL_CHECK(used == val.size(), "trailing text in '" << piece << "'");
  }
  return config;
}

std::optional<std::vector<TrialRecord>> load_trials_csv(std::istream& in,
                                                        const CaseStudyDef& def) {
  std::string header_line;
  if (!std::getline(in, header_line)) return std::nullopt;
  std::string expected = "id,budget_fraction,status,attempts,error,config";
  for (const auto& m : def.metrics.defs()) expected += "," + m.name;
  if (header_line != expected) return std::nullopt;
  constexpr std::size_t kFixedCols = 6;

  std::vector<TrialRecord> trials;
  std::string line;
  while (std::getline(in, line)) {
    // A row without its newline is a file cut short: its last cell may be
    // a truncated number that would still parse.
    if (in.eof()) return std::nullopt;
    if (line.empty()) continue;
    // Parse with quote awareness (the config field is quoted when it
    // contains commas — which it does for multi-parameter configs).
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (quoted) {
        if (c == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            cur += '"';
            ++i;
          } else {
            quoted = false;
          }
        } else {
          cur += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        fields.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    fields.push_back(cur);
    if (fields.size() != kFixedCols + def.metrics.size()) return std::nullopt;

    // Numeric cells must be whole tokens, and metrics finite.
    const auto id = parse_count(fields[0].c_str());
    const auto budget = parse_real(fields[1].c_str());
    const auto status = trial_status_from_name(fields[2]);
    const auto attempts = parse_count(fields[3].c_str());
    if (!id || !budget || !status || !attempts) return std::nullopt;
    TrialRecord t;
    t.id = static_cast<std::size_t>(*id);
    t.budget_fraction = *budget;
    t.status = *status;
    t.attempts = static_cast<std::size_t>(*attempts);
    t.error = fields[4];
    try {
      t.config = parse_configuration(def.space, fields[5]);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    for (std::size_t j = 0; j < def.metrics.size(); ++j) {
      const std::string& cell = fields[kFixedCols + j];
      // Failed trials persist empty metric cells.
      if (cell.empty()) {
        if (t.ok()) return std::nullopt;
        continue;
      }
      const auto value = parse_real(cell.c_str());
      if (!value) return std::nullopt;
      t.metrics[def.metrics.defs()[j].name] = *value;
    }
    trials.push_back(std::move(t));
  }
  if (trials.empty()) return std::nullopt;
  return trials;
}

std::string config_list_digest(
    const std::vector<LearningConfiguration>& configs) {
  std::string blob;
  for (const auto& c : configs) {
    blob += c.cache_key();
    blob += '\n';
  }
  std::ostringstream oss;
  oss << std::hex << std::setw(16) << std::setfill('0') << fnv1a64(blob);
  return oss.str();
}

namespace {

constexpr const char* kCacheMagic = "# darl-campaign-cache v2";

std::string cache_meta_line(const CampaignCacheKey& key) {
  std::ostringstream oss;
  oss << kCacheMagic << " seed=" << key.seed << " digest=" << key.config_digest;
  return oss.str();
}

}  // namespace

void write_campaign_cache(std::ostream& out, const CaseStudyDef& def,
                          const std::vector<TrialRecord>& trials,
                          const CampaignCacheKey& key) {
  out << cache_meta_line(key) << '\n';
  write_trials_csv(out, def, trials);
}

std::optional<std::vector<TrialRecord>> load_campaign_cache(
    std::istream& in, const CaseStudyDef& def, const CampaignCacheKey& key) {
  std::string meta;
  if (!std::getline(in, meta)) return std::nullopt;
  // Any mismatch — missing meta line, different seed, different config
  // list — means the cache answers a different campaign: treat as stale.
  if (meta != cache_meta_line(key)) return std::nullopt;
  return load_trials_csv(in, def);
}

std::string render_failure_summary(const std::vector<TrialRecord>& trials) {
  const bool any =
      std::any_of(trials.begin(), trials.end(),
                  [](const TrialRecord& t) { return !t.ok(); });
  if (!any) return "";

  TextTable table;
  table.set_columns({"#", "status", "attempts", "error"},
                    {Align::Right, Align::Left, Align::Right, Align::Left});
  for (const auto& t : trials) {
    if (t.ok()) continue;
    table.add_row({std::to_string(t.id + 1), trial_status_name(t.status),
                   std::to_string(t.attempts), t.error});
  }
  return "Failed trials (excluded from tables, fronts and rankings):\n" +
         table.render();
}

std::string write_markdown_report(const CaseStudyDef& def,
                                  const std::vector<TrialRecord>& trials,
                                  const MarkdownReportOptions& options) {
  const std::size_t failed = static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(),
                    [](const TrialRecord& t) { return !t.ok(); }));
  std::ostringstream md;
  md << "# Decision analysis: " << def.name << "\n\n";
  md << trials.size() << " evaluated configurations";
  if (failed > 0) md << " (" << failed << " failed)";
  md << ", " << def.metrics.size() << " metrics (";
  for (std::size_t i = 0; i < def.metrics.size(); ++i) {
    if (i) md << ", ";
    md << def.metrics.defs()[i].name << " "
       << sense_name(def.metrics.defs()[i].sense);
  }
  md << ").\n\n";

  // --- campaign table.
  md << "## Evaluated configurations\n\n|#|";
  for (const auto& d : def.space.domains()) md << d.name() << "|";
  for (const auto& m : def.metrics.defs()) {
    md << m.name << (m.unit.empty() ? "" : " (" + m.unit + ")") << "|";
  }
  md << "\n|-|";
  for (std::size_t i = 0; i < def.space.size() + def.metrics.size(); ++i)
    md << "-|";
  md << "\n";
  for (const auto& t : trials) {
    md << "|" << (t.id + 1) << "|";
    for (const auto& d : def.space.domains()) {
      md << (t.config.has(d.name())
                 ? param_value_to_string(t.config.get(d.name()))
                 : "-")
         << "|";
    }
    for (const auto& m : def.metrics.defs()) {
      const auto it = t.metrics.find(m.name);
      md << (it == t.metrics.end() ? std::string("-") : fixed(it->second, 2))
         << "|";
    }
    md << "\n";
  }
  md << "\n";

  // --- failure summary (faults are first-class campaign events).
  if (failed > 0) {
    md << "## Failed trials\n\n"
       << "Excluded from fronts, rankings and stability below.\n\n"
       << "|#|status|attempts|error|\n|-|-|-|-|\n";
    for (const auto& t : trials) {
      if (t.ok()) continue;
      md << "|" << (t.id + 1) << "|" << trial_status_name(t.status) << "|"
         << t.attempts << "|" << t.error << "|\n";
    }
    md << "\n";
  }

  // --- phase-time breakdown (when the trials carry the diagnostics).
  if (std::any_of(trials.begin(), trials.end(), has_phase_metrics)) {
    md << "## Phase breakdown (host seconds)\n\n"
       << "|#|collect|learn|sync|total|\n|-|-|-|-|-|\n";
    for (const auto& t : trials) {
      if (!has_phase_metrics(t)) continue;
      const double collect = t.metrics.at("CollectSeconds");
      const double learn = t.metrics.at("LearnSeconds");
      const double sync = t.metrics.at("SyncSeconds");
      md << "|" << (t.id + 1) << "|" << fixed(collect, 3) << "|"
         << fixed(learn, 3) << "|" << fixed(sync, 3) << "|"
         << fixed(collect + learn + sync, 3) << "|\n";
    }
    md << "\n";
  }

  // --- Pareto-front sections.
  auto figures = options.figures;
  if (figures.empty()) {
    const auto& defs = def.metrics.defs();
    for (std::size_t i = 0; i + 1 < defs.size(); ++i) {
      figures.emplace_back(defs[i].name, defs[i + 1].name);
    }
    if (defs.size() > 2) figures.emplace_back(defs.back().name, defs[0].name);
  }
  for (const auto& [x, y] : figures) {
    std::vector<std::size_t> front;
    const std::string plot =
        render_pareto_plot(def, trials, x, y, y + " vs " + x, &front);
    md << "## Trade-off: " << y << " vs " << x << "\n\n";
    md << "Non-dominated solutions: ";
    for (std::size_t i = 0; i < front.size(); ++i) {
      if (i) md << ", ";
      md << "#" << (front[i] + 1);
    }
    md << "\n\n```\n" << plot << "```\n\n";
  }

  // --- stability section (successful trials only; failed trials carry no
  // metrics to resample).
  std::vector<std::size_t> ok_indices;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (trials[i].ok()) ok_indices.push_back(i);
  }
  if (options.include_stability && !ok_indices.empty()) {
    std::vector<std::vector<double>> points;
    points.reserve(ok_indices.size());
    for (std::size_t i : ok_indices) {
      points.push_back(def.metrics.extract(trials[i].metrics));
    }
    StabilityOptions sopts;
    sopts.samples = options.stability_samples;
    sopts.relative_noise = options.stability_relative_noise;
    Rng rng(options.stability_seed);
    const StabilityResult st = front_stability(points, def.metrics, sopts, rng);
    md << "## Front stability (" << sopts.samples << " resamples, "
       << fixed(100.0 * sopts.relative_noise, 0) << "% relative noise)\n\n"
       << "|#|front membership|\n|-|-|\n";
    for (std::size_t k = 0; k < ok_indices.size(); ++k) {
      md << "|" << (trials[ok_indices[k]].id + 1) << "|"
         << fixed(100.0 * st.membership[k], 1) << "%"
         << (st.membership[k] >= 0.5 ? " **robust**" : "") << "|\n";
    }
    md << "\n";
  }
  return md.str();
}

}  // namespace darl::core
