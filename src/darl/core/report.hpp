// darl/core/report.hpp
//
// Presentation of study results: paper-style configuration/result tables
// (Table I), ASCII Pareto-front plots (Figures 4-6), CSV persistence and a
// loader so expensive campaigns can be cached and re-analyzed.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "darl/core/study.hpp"

namespace darl::core {

/// Render a Table-I-style table: one row per trial with the configuration
/// parameters (columns in `param_order`; all space parameters when empty)
/// followed by the metrics. Trial ids are printed 1-based like the paper.
std::string render_trial_table(const CaseStudyDef& def,
                               const std::vector<TrialRecord>& trials,
                               const std::vector<std::string>& param_order = {});

/// Render one Pareto front over a metric pair as an ASCII scatter plot with
/// 1-based trial labels; non-dominated trials are highlighted. Only
/// full-budget trials are plotted. Also returns the front through
/// `front_trial_ids` when non-null.
std::string render_pareto_plot(const CaseStudyDef& def,
                               const std::vector<TrialRecord>& trials,
                               const std::string& metric_x,
                               const std::string& metric_y,
                               const std::string& title,
                               std::vector<std::size_t>* front_trial_ids = nullptr);

/// Render a failure summary table (trial id, status, attempts, error) for
/// every non-Ok trial; returns "" when the campaign had no failures.
std::string render_failure_summary(const std::vector<TrialRecord>& trials);

/// Render a per-trial phase-time breakdown table (host seconds spent in the
/// backends' collect / learn / sync phases, plus the trial total). Reads the
/// "CollectSeconds"/"LearnSeconds"/"SyncSeconds" diagnostics the airdrop
/// evaluation attaches beside the declared metrics; returns "" when no trial
/// carries them (e.g. a campaign loaded from a pre-observability cache).
std::string render_phase_breakdown(const std::vector<TrialRecord>& trials);

/// Write trials to CSV: id, budget_fraction, status, attempts, error,
/// config (describe string), one column per declared metric. Metric values
/// are written with max_digits10 significant digits so a load is
/// bit-exact; failed trials leave their missing metric cells empty.
void write_trials_csv(std::ostream& out, const CaseStudyDef& def,
                      const std::vector<TrialRecord>& trials);

/// Load trials back from CSV written by write_trials_csv. Configuration
/// values are re-typed through the space's domains. Returns nullopt when
/// the header does not match the case study (stale cache), or when a row
/// is damaged: no trailing newline, a numeric cell that is not a whole
/// number token, or a non-finite metric.
std::optional<std::vector<TrialRecord>> load_trials_csv(std::istream& in,
                                                        const CaseStudyDef& def);

/// Identity of a campaign cache: the study seed plus a digest of the
/// configurations the campaign proposes. A cache written under a different
/// key is stale — loading it would silently answer a different question
/// (e.g. `--seed 2` returning seed-1 results).
struct CampaignCacheKey {
  std::uint64_t seed = 0;
  /// Digest of the campaign's configuration list (config_list_digest).
  std::string config_digest;
};

/// Stable hex digest over a configuration list's cache keys.
std::string config_list_digest(
    const std::vector<LearningConfiguration>& configs);

/// write_trials_csv preceded by a `# darl-campaign-cache ...` meta line
/// embedding `key`, so loads can reject stale caches.
void write_campaign_cache(std::ostream& out, const CaseStudyDef& def,
                          const std::vector<TrialRecord>& trials,
                          const CampaignCacheKey& key);

/// Load a cache written by write_campaign_cache. Returns nullopt when the
/// meta line is missing or its seed/digest disagree with `key` (stale), or
/// when the trial rows fail to parse.
std::optional<std::vector<TrialRecord>> load_campaign_cache(
    std::istream& in, const CaseStudyDef& def, const CampaignCacheKey& key);

/// Parse a "k=v, k=v" configuration description using the space for types.
LearningConfiguration parse_configuration(const ParamSpace& space,
                                          const std::string& description);

/// Options for write_markdown_report.
struct MarkdownReportOptions {
  /// Metric pairs to present as Pareto-front sections; all consecutive
  /// declared-metric pairs when empty.
  std::vector<std::pair<std::string, std::string>> figures;
  /// Include the front-stability section (resampling under noise).
  bool include_stability = true;
  std::size_t stability_samples = 2000;
  double stability_relative_noise = 0.05;
  std::uint64_t stability_seed = 7;
};

/// Render a complete decision-analysis report as GitHub-flavoured Markdown:
/// campaign table, per-figure non-dominated sets with plots, and (optionally)
/// front-membership stability — the hand-off document the methodology's
/// final stage produces for the project team.
std::string write_markdown_report(const CaseStudyDef& def,
                                  const std::vector<TrialRecord>& trials,
                                  const MarkdownReportOptions& options = {});

}  // namespace darl::core
