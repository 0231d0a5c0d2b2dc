// Tests for the study runner and the report/persistence layer, using
// synthetic (cheap) case studies.

#include <gtest/gtest.h>

#include <sstream>

#include "darl/common/error.hpp"
#include "darl/core/report.hpp"
#include "darl/core/study.hpp"

namespace darl::core {
namespace {

/// Synthetic case study: two metrics computed analytically from the config.
CaseStudyDef synthetic_study() {
  CaseStudyDef def;
  def.name = "synthetic";
  def.space.add(ParamDomain::integer_set("x", {1, 2, 3}, ParamCategory::System));
  def.space.add(ParamDomain::categorical("mode", {"a", "b"},
                                         ParamCategory::Algorithm));
  def.metrics.add({"quality", "", Sense::Maximize});
  def.metrics.add({"cost", "s", Sense::Minimize});
  def.evaluate = [](const LearningConfiguration& c, double budget,
                    std::uint64_t seed) -> MetricValues {
    (void)seed;
    const double x = static_cast<double>(c.get_integer("x"));
    const double bonus = c.get_categorical("mode") == "a" ? 0.5 : 0.0;
    return {{"quality", (x + bonus) * budget}, {"cost", x * x}};
  };
  return def;
}

TEST(Study, RunsGridCampaignAndRecordsTrials) {
  Study study(synthetic_study(),
              std::make_unique<GridSearch>(synthetic_study().space, 3),
              {.seed = 1, .log_progress = false});
  study.run();
  EXPECT_EQ(study.trials().size(), 6u);
  for (const auto& t : study.trials()) {
    EXPECT_EQ(t.budget_fraction, 1.0);
    EXPECT_TRUE(t.metrics.count("quality"));
    EXPECT_TRUE(t.metrics.count("cost"));
  }
  const auto table = study.metric_table();
  EXPECT_EQ(table.size(), 6u);
  EXPECT_EQ(table[0].size(), 2u);
}

TEST(Study, ParallelExecutionMatchesSequentialResults) {
  const CaseStudyDef def = synthetic_study();
  Study seq(def, std::make_unique<GridSearch>(def.space, 3),
            {.seed = 9, .log_progress = false, .parallel_trials = 1});
  seq.run();
  Study par(def, std::make_unique<GridSearch>(def.space, 3),
            {.seed = 9, .log_progress = false, .parallel_trials = 4});
  par.run();

  ASSERT_EQ(seq.trials().size(), par.trials().size());
  for (std::size_t i = 0; i < seq.trials().size(); ++i) {
    EXPECT_EQ(seq.trials()[i].id, par.trials()[i].id);
    EXPECT_EQ(seq.trials()[i].config.cache_key(),
              par.trials()[i].config.cache_key());
    EXPECT_DOUBLE_EQ(seq.trials()[i].metrics.at("quality"),
                     par.trials()[i].metrics.at("quality"));
  }
}

TEST(Study, ParallelDeterminismAcrossWidths) {
  // Identical trial tables for parallel_trials = 1, 2 and 4: scheduling
  // must never leak into results.
  const CaseStudyDef def = synthetic_study();
  Study base(def, std::make_unique<GridSearch>(def.space, 3),
             {.seed = 4, .log_progress = false, .parallel_trials = 1});
  base.run();
  for (const std::size_t width : {2u, 4u}) {
    Study other(def, std::make_unique<GridSearch>(def.space, 3),
                {.seed = 4, .log_progress = false, .parallel_trials = width});
    other.run();
    ASSERT_EQ(base.trials().size(), other.trials().size());
    for (std::size_t i = 0; i < base.trials().size(); ++i) {
      EXPECT_EQ(base.trials()[i].id, other.trials()[i].id);
      EXPECT_EQ(base.trials()[i].config.cache_key(),
                other.trials()[i].config.cache_key());
      EXPECT_EQ(base.trials()[i].metrics.at("quality"),
                other.trials()[i].metrics.at("quality"));
      EXPECT_EQ(base.trials()[i].metrics.at("cost"),
                other.trials()[i].metrics.at("cost"));
    }
  }
}

TEST(Study, ParallelRespectsMaxTrials) {
  const CaseStudyDef def = synthetic_study();
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 9, .log_progress = false, .max_trials = 3,
               .parallel_trials = 8});
  study.run();
  EXPECT_EQ(study.trials().size(), 3u);
}

TEST(Study, ParallelWorksWithAdaptiveExplorers) {
  // Successive halving releases one rung at a time; the parallel driver
  // must not deadlock on the partial batches.
  const CaseStudyDef def = synthetic_study();
  auto sh = std::make_unique<SuccessiveHalving>(
      def.space, def.metrics.defs()[0], 4, 2.0, 0.5, 3);
  Study study(def, std::move(sh),
              {.seed = 2, .log_progress = false, .parallel_trials = 3});
  study.run();
  EXPECT_GE(study.trials().size(), 6u);  // 4 + 2 across rungs
}

TEST(Study, MaxTrialsCapsTheCampaign) {
  Study study(synthetic_study(),
              std::make_unique<GridSearch>(synthetic_study().space, 3),
              {.seed = 1, .log_progress = false, .max_trials = 2});
  study.run();
  EXPECT_EQ(study.trials().size(), 2u);
}

TEST(Study, ParetoTrialsOverMetricSubset) {
  Study study(synthetic_study(),
              std::make_unique<GridSearch>(synthetic_study().space, 3),
              {.seed = 1, .log_progress = false});
  study.run();
  // quality rises with x but cost rises quadratically: the front over
  // (quality, cost) contains the mode-a configs of every x (mode-b configs
  // are dominated by mode-a at equal x).
  const auto front = study.pareto_trials();
  for (std::size_t idx : front) {
    EXPECT_EQ(study.trials()[idx].config.get_categorical("mode"), "a");
  }
  EXPECT_EQ(front.size(), 3u);
  // Single-metric "front": only the best-quality trial(s).
  const auto best_quality = study.pareto_trials({"quality"});
  ASSERT_EQ(best_quality.size(), 1u);
  EXPECT_EQ(study.trials()[best_quality[0]].config.get_integer("x"), 3);
}

TEST(Study, ValidatesConstruction) {
  CaseStudyDef def = synthetic_study();
  def.evaluate = nullptr;
  EXPECT_THROW(Study(def, std::make_unique<GridSearch>(def.space, 3), {}),
               InvalidArgument);
}

TEST(Study, SuccessiveHalvingProducesPartialBudgetTrials) {
  CaseStudyDef def = synthetic_study();
  auto sh = std::make_unique<SuccessiveHalving>(
      def.space, def.metrics.defs()[0], 4, 2.0, 0.5, 3);
  Study study(def, std::move(sh), {.seed = 2, .log_progress = false});
  study.run();
  bool saw_partial = false, saw_full = false;
  for (const auto& t : study.trials()) {
    if (t.budget_fraction < 1.0) saw_partial = true;
    if (t.budget_fraction >= 1.0) saw_full = true;
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_full);
  // full_budget_metric_table filters the partial trials out.
  std::vector<std::size_t> indices;
  const auto table = study.full_budget_metric_table(indices);
  EXPECT_EQ(table.size(), indices.size());
  for (std::size_t idx : indices) {
    EXPECT_GE(study.trials()[idx].budget_fraction, 1.0);
  }
}

TEST(Report, TrialTableContainsConfigsAndMetrics) {
  Study study(synthetic_study(),
              std::make_unique<GridSearch>(synthetic_study().space, 3),
              {.seed = 1, .log_progress = false});
  study.run();
  const std::string table =
      render_trial_table(study.definition(), study.trials());
  EXPECT_NE(table.find("quality"), std::string::npos);
  EXPECT_NE(table.find("cost (s)"), std::string::npos);
  EXPECT_NE(table.find("mode"), std::string::npos);
  // 1-based ids.
  EXPECT_NE(table.find("| 1 "), std::string::npos);
}

TEST(Report, ParetoPlotHighlightsFront) {
  Study study(synthetic_study(),
              std::make_unique<GridSearch>(synthetic_study().space, 3),
              {.seed = 1, .log_progress = false});
  study.run();
  std::vector<std::size_t> front_ids;
  const std::string plot =
      render_pareto_plot(study.definition(), study.trials(), "quality", "cost",
                         "demo", &front_ids);
  EXPECT_NE(plot.find('#'), std::string::npos);
  EXPECT_FALSE(front_ids.empty());
}

TEST(Report, CsvRoundTrip) {
  const CaseStudyDef def = synthetic_study();
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 1, .log_progress = false});
  study.run();

  std::stringstream buf;
  write_trials_csv(buf, def, study.trials());
  const auto loaded = load_trials_csv(buf, def);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), study.trials().size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    const TrialRecord& a = study.trials()[i];
    const TrialRecord& b = (*loaded)[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.config.cache_key(), b.config.cache_key());
    EXPECT_DOUBLE_EQ(a.metrics.at("quality"), b.metrics.at("quality"));
    EXPECT_DOUBLE_EQ(a.metrics.at("cost"), b.metrics.at("cost"));
  }
}

/// The synthetic study with metrics whose decimal forms run to 17 digits
/// (the last trial's cost is 3 * 0.07 = 0.21000000000000002).
CaseStudyDef long_decimal_study() {
  CaseStudyDef def = synthetic_study();
  def.evaluate = [](const LearningConfiguration& c, double budget,
                    std::uint64_t seed) -> MetricValues {
    (void)seed;
    const double x = static_cast<double>(c.get_integer("x"));
    return {{"quality", (x / 3.0 + 0.1) * budget}, {"cost", x * 0.07}};
  };
  return def;
}

TEST(Report, CsvRoundTripIsBitExact) {
  // Metrics with non-terminating binary expansions must survive a
  // save->load cycle exactly: anything less flips low-order bits and can
  // flip downstream Pareto ties between a fresh and a cache-loaded run.
  const CaseStudyDef def = long_decimal_study();
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 1, .log_progress = false});
  study.run();

  std::stringstream buf;
  write_trials_csv(buf, def, study.trials());
  const auto loaded = load_trials_csv(buf, def);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), study.trials().size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    const TrialRecord& a = study.trials()[i];
    const TrialRecord& b = (*loaded)[i];
    // Exact equality, not near-equality: the cache must be lossless.
    EXPECT_EQ(a.budget_fraction, b.budget_fraction);
    EXPECT_EQ(a.metrics.at("quality"), b.metrics.at("quality"));
    EXPECT_EQ(a.metrics.at("cost"), b.metrics.at("cost"));
  }
}

TEST(Report, CampaignCacheRejectsMismatchedKey) {
  const CaseStudyDef def = synthetic_study();
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 1, .log_progress = false});
  study.run();

  std::vector<LearningConfiguration> configs;
  for (const auto& t : study.trials()) configs.push_back(t.config);
  const CampaignCacheKey key{1, config_list_digest(configs)};

  std::stringstream buf;
  write_campaign_cache(buf, def, study.trials(), key);
  const std::string cache_text = buf.str();

  // Matching key loads.
  {
    std::stringstream in(cache_text);
    const auto loaded = load_campaign_cache(in, def, key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), study.trials().size());
  }
  // A different study seed must be treated as stale, not silently served.
  {
    std::stringstream in(cache_text);
    EXPECT_FALSE(
        load_campaign_cache(in, def, {2, key.config_digest}).has_value());
  }
  // A different configuration list must be stale too.
  {
    std::stringstream in(cache_text);
    const CampaignCacheKey other{1, config_list_digest({configs[0]})};
    EXPECT_FALSE(load_campaign_cache(in, def, other).has_value());
  }
  // A bare trials CSV (no meta line) is not a valid campaign cache.
  {
    std::stringstream plain;
    write_trials_csv(plain, def, study.trials());
    EXPECT_FALSE(load_campaign_cache(plain, def, key).has_value());
  }
}

// A campaign cache of long_decimal_study, whose last cell is a long
// decimal, so a cut inside it still reads as a number.
std::pair<std::string, CampaignCacheKey> long_decimal_cache(
    const CaseStudyDef& def) {
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 1, .log_progress = false});
  study.run();
  std::vector<LearningConfiguration> configs;
  for (const auto& t : study.trials()) configs.push_back(t.config);
  const CampaignCacheKey key{1, config_list_digest(configs)};
  std::stringstream buf;
  write_campaign_cache(buf, def, study.trials(), key);
  return {buf.str(), key};
}

TEST(Report, CampaignCacheRejectsRowTruncatedMidCell) {
  const CaseStudyDef def = long_decimal_study();
  const auto [text, key] = long_decimal_cache(def);
  ASSERT_EQ(text.substr(text.size() - 20), "0.21000000000000002\n");
  {
    std::stringstream in(text);
    ASSERT_TRUE(load_campaign_cache(in, def, key).has_value());
  }
  // Cut inside the last metric cell: "0.21000000000000002" -> "0.2100".
  std::stringstream in(text.substr(0, text.size() - 14));
  EXPECT_FALSE(load_campaign_cache(in, def, key).has_value());
  // The whole row intact but its newline lost is cut short too.
  std::stringstream no_newline(text.substr(0, text.size() - 1));
  EXPECT_FALSE(load_campaign_cache(no_newline, def, key).has_value());
}

TEST(Report, CampaignCacheRejectsTrailingGarbageInNumericCells) {
  const CaseStudyDef def = long_decimal_study();
  const auto [text, key] = long_decimal_cache(def);
  // Garbage after the last metric of the last row.
  {
    std::string bad = text;
    bad.insert(bad.size() - 1, "abc");
    std::stringstream in(bad);
    EXPECT_FALSE(load_campaign_cache(in, def, key).has_value());
  }
  // Garbage after the id of the first row.
  {
    std::string bad = text;
    const std::size_t row = bad.find("\n0,") + 1;
    bad.insert(row + 1, "x");
    std::stringstream in(bad);
    EXPECT_FALSE(load_campaign_cache(in, def, key).has_value());
  }
}

TEST(Report, CampaignCacheRejectsNonFiniteMetricOnOkTrial) {
  const CaseStudyDef def = long_decimal_study();
  const auto [text, key] = long_decimal_cache(def);
  std::string bad = text;
  bad.replace(bad.size() - 20, 19, "nan");
  ASSERT_EQ(bad.substr(bad.size() - 5), ",nan\n");
  std::stringstream in(bad);
  EXPECT_FALSE(load_campaign_cache(in, def, key).has_value());
}

TEST(Report, ConfigListDigestIsOrderAndContentSensitive) {
  const CaseStudyDef def = synthetic_study();
  LearningConfiguration a, b;
  a.set("x", std::int64_t{1});
  a.set("mode", std::string("a"));
  b.set("x", std::int64_t{2});
  b.set("mode", std::string("b"));
  EXPECT_EQ(config_list_digest({a, b}), config_list_digest({a, b}));
  EXPECT_NE(config_list_digest({a, b}), config_list_digest({b, a}));
  EXPECT_NE(config_list_digest({a}), config_list_digest({a, b}));
}

TEST(Report, MarkdownReportContainsAllSections) {
  const CaseStudyDef def = synthetic_study();
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 1, .log_progress = false});
  study.run();

  const std::string md = write_markdown_report(def, study.trials());
  EXPECT_NE(md.find("# Decision analysis: synthetic"), std::string::npos);
  EXPECT_NE(md.find("## Evaluated configurations"), std::string::npos);
  EXPECT_NE(md.find("## Trade-off: cost vs quality"), std::string::npos);
  EXPECT_NE(md.find("Non-dominated solutions:"), std::string::npos);
  EXPECT_NE(md.find("## Front stability"), std::string::npos);
  EXPECT_NE(md.find("**robust**"), std::string::npos);
  // One table row per trial (1-based ids).
  for (std::size_t i = 1; i <= study.trials().size(); ++i) {
    EXPECT_NE(md.find("|" + std::to_string(i) + "|"), std::string::npos);
  }
}

TEST(Report, MarkdownReportCustomFiguresAndNoStability) {
  const CaseStudyDef def = synthetic_study();
  Study study(def, std::make_unique<GridSearch>(def.space, 3),
              {.seed = 1, .log_progress = false});
  study.run();
  MarkdownReportOptions opts;
  opts.include_stability = false;
  opts.figures = {{"quality", "cost"}};
  const std::string md = write_markdown_report(def, study.trials(), opts);
  EXPECT_EQ(md.find("## Front stability"), std::string::npos);
  EXPECT_NE(md.find("## Trade-off: cost vs quality"), std::string::npos);
}

TEST(Report, LoadRejectsMismatchedHeader) {
  const CaseStudyDef def = synthetic_study();
  std::stringstream buf("id,oops\n1,2\n");
  EXPECT_FALSE(load_trials_csv(buf, def).has_value());
  std::stringstream empty;
  EXPECT_FALSE(load_trials_csv(empty, def).has_value());
}

TEST(Report, ParseConfigurationTypesValues) {
  const CaseStudyDef def = synthetic_study();
  const LearningConfiguration c =
      parse_configuration(def.space, "mode=b, x=2");
  EXPECT_EQ(c.get_categorical("mode"), "b");
  EXPECT_EQ(c.get_integer("x"), 2);
  EXPECT_THROW(parse_configuration(def.space, "garbage"), InvalidArgument);
  EXPECT_THROW(parse_configuration(def.space, "mode=b, x=2abc"),
               InvalidArgument);
}

}  // namespace
}  // namespace darl::core
