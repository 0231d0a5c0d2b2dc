// Unit tests for darl/common: rng, stats, csv, jsonl, table, ascii_plot,
// strict number parsing, error macros.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include "darl/common/ascii_plot.hpp"
#include "darl/common/csv.hpp"
#include "darl/common/error.hpp"
#include "darl/common/jsonl.hpp"
#include "darl/common/log.hpp"
#include "darl/common/parse.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stats.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/common/table.hpp"

namespace darl {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng root(7);
  Rng c0 = root.split(0);
  Rng c1 = root.split(1);
  Rng c0_again = root.split(0);
  EXPECT_DOUBLE_EQ(c0.uniform(), c0_again.uniform());
  EXPECT_NE(c0.uniform(), c1.uniform());
}

TEST(Rng, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_DOUBLE_EQ(rng.uniform(4.0, 4.0), 4.0);
  EXPECT_THROW(rng.uniform(1.0, 0.0), InvalidArgument);
}

TEST(Rng, RandintCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.randint(-1, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-1, 0, 1, 2}));
  EXPECT_THROW(rng.randint(3, 1), InvalidArgument);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.push(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  EXPECT_THROW(rng.bernoulli(1.5), InvalidArgument);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.categorical({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 30000.0, 0.75, 0.02);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(rng.categorical({}), InvalidArgument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(19);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, IndexThrowsOnEmpty) {
  Rng rng(23);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MatchesNaiveFormulas) {
  RunningStats s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.push(x);
    sum += x;
  }
  const double m = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - m) * (x - m);
  var /= (xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), m);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(29);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.push(x);
    (i % 2 ? a : b).push(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.push(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), InvalidArgument);
}

// The sample-percentile helper moved to obs::percentile (see
// tests/test_obs.cpp for its coverage, alongside histogram_percentile).

TEST(Stats, EmaFirstValueAndSmoothing) {
  const auto e = ema({1.0, 1.0, 4.0}, 0.5);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_DOUBLE_EQ(e[0], 1.0);
  EXPECT_DOUBLE_EQ(e[1], 1.0);
  EXPECT_DOUBLE_EQ(e[2], 2.5);
  EXPECT_THROW(ema({1.0}, 0.0), InvalidArgument);
}

// ---------------------------------------------------------------- csv

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"name", "x"});
  w.begin_row();
  w.field("a,b");
  w.number(1.5);
  w.end_row();
  EXPECT_EQ(out.str(), "name,x\n\"a,b\",1.5\n");
  EXPECT_EQ(w.rows(), 1u);
}

TEST(Csv, RejectsColumnCountMismatch) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.begin_row();
  w.field("only-one");
  EXPECT_THROW(w.end_row(), InvalidArgument);
}

TEST(Csv, RejectsLateHeader) {
  std::ostringstream out;
  CsvWriter w(out);
  w.begin_row();
  w.integer(1);
  w.end_row();
  EXPECT_THROW(w.header({"a"}), InvalidArgument);
}

TEST(Csv, FuzzedEscapingNeverBreaksTheRowStructure) {
  // Random strings with hostile characters must stay within one logical
  // record; a quote-aware scan of the emitted text recovers the field
  // count.
  Rng rng(31);
  const std::string alphabet = "ab,\"\n\r;x ";
  for (int round = 0; round < 50; ++round) {
    std::string field;
    const std::size_t len = rng.index(20);
    for (std::size_t i = 0; i < len; ++i)
      field += alphabet[rng.index(alphabet.size())];

    std::ostringstream out;
    CsvWriter w(out);
    w.header({"a", "b"});
    w.begin_row();
    w.field(field);
    w.field("tail");
    w.end_row();

    const std::string text = out.str();
    const std::size_t data_start = text.find('\n') + 1;
    bool quoted = false;
    int commas = 0;
    for (std::size_t i = data_start; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '"') quoted = !quoted;
      else if (c == ',' && !quoted) ++commas;
      else if (c == '\n' && !quoted) break;
    }
    EXPECT_EQ(commas, 1) << "field was: " << field;
  }
}

// ---------------------------------------------------------------- jsonl

TEST(Json, DumpsScalarsAndContainers) {
  Json obj = Json::object();
  obj.set("b", Json::boolean(true));
  obj.set("n", Json::number(1.5));
  obj.set("i", Json::integer(42));
  obj.set("s", Json::string("hi\n"));
  Json arr = Json::array();
  arr.push_back(Json::null());
  arr.push_back(Json::number(2.0));
  obj.set("a", std::move(arr));
  EXPECT_EQ(obj.dump(),
            "{\"a\":[null,2],\"b\":true,\"i\":42,\"n\":1.5,\"s\":\"hi\\n\"}");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json::number(std::nan("")).dump(), "null");
  EXPECT_EQ(Json::number(1.0 / 0.0).dump(), "null");
}

TEST(Json, KindChecksThrow) {
  Json n = Json::number(1.0);
  EXPECT_THROW(n.as_string(), Error);
  EXPECT_THROW(n.push_back(Json::null()), Error);
  Json o = Json::object();
  EXPECT_THROW(o.as_number(), Error);
}

TEST(Json, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("quote\" back\\slash"), "quote\\\" back\\\\slash");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  // Other control characters become \u00XX escapes.
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  // Non-ASCII (UTF-8) bytes pass through untouched.
  EXPECT_EQ(json_escape("caf\xc3\xa9 \xe2\x82\xac"), "caf\xc3\xa9 \xe2\x82\xac");
  EXPECT_EQ(Json::string("tab\there").dump(), "\"tab\\there\"");
}

TEST(Json, NestedContainersRoundTripThroughDump) {
  Json inner = Json::object();
  inner.set("k\"ey", Json::string("v\nal"));
  Json arr = Json::array();
  arr.push_back(Json::integer(1));
  arr.push_back(std::move(inner));
  Json nested_arr = Json::array();
  nested_arr.push_back(Json::array());
  arr.push_back(std::move(nested_arr));
  Json root = Json::object();
  root.set("list", std::move(arr));
  root.set("empty", Json::object());
  EXPECT_EQ(root.dump(),
            "{\"empty\":{},\"list\":[1,{\"k\\\"ey\":\"v\\nal\"},[[]]]}");
  // The tree is still walkable after dump (dump is const / non-destructive).
  const auto& list = root.as_object().at("list").as_array();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].as_object().at("k\"ey").as_string(), "v\nal");
  EXPECT_TRUE(list[2].as_array()[0].as_array().empty());
}

TEST(Jsonl, OneRecordPerLine) {
  std::ostringstream out;
  JsonlWriter w(out);
  w.write(Json::integer(1));
  w.write(Json::integer(2));
  EXPECT_EQ(out.str(), "1\n2\n");
  EXPECT_EQ(w.records(), 2u);
}

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.set_columns({"name", "value"}, {Align::Left, Align::Right});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "23"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| a         |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| long-name |    23 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RejectsBadRows) {
  TextTable t;
  t.set_columns({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), InvalidArgument);
}

TEST(TextTable, FixedFormatsDecimals) {
  EXPECT_EQ(fixed(1.005, 2), "1.00");
  EXPECT_EQ(fixed(-0.451, 2), "-0.45");
}

// ---------------------------------------------------------------- plot

TEST(AsciiPlot, ContainsMarkersAndLabels) {
  std::vector<PlotPoint> pts{{0.0, 0.0, "1", false}, {1.0, 1.0, "2", true}};
  PlotOptions opts;
  opts.title = "demo";
  const std::string s = render_scatter(pts, opts);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("legend"), std::string::npos);
}

TEST(AsciiPlot, HandlesDegenerateRanges) {
  std::vector<PlotPoint> pts{{5.0, 5.0, "a", true}};
  const std::string s = render_scatter(pts, PlotOptions{});
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NO_THROW(render_scatter({}, PlotOptions{}));
}

TEST(AsciiPlot, RejectsTinyCanvas) {
  PlotOptions opts;
  opts.width = 4;
  EXPECT_THROW(render_scatter({}, opts), InvalidArgument);
}

TEST(AsciiPlot, LabelsTruncateAtTheFrame) {
  std::vector<PlotPoint> pts{
      {1.0, 0.0, "this-label-is-far-too-long-to-fit-inside-the-plot-area",
       true},
      {0.0, 1.0, "ok", false}};
  PlotOptions opts;
  opts.width = 24;
  opts.height = 8;
  const std::string s = render_scatter(pts, opts);
  // Every line stays within frame width + gutter; no line explodes.
  std::istringstream iss(s);
  std::string line;
  while (std::getline(iss, line)) {
    EXPECT_LE(line.size(), 64u);
  }
}

// ---------------------------------------------------------------- log

TEST(Log, LevelRoundTripAndSuppression) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Below-threshold messages are dropped without side effects.
  log_message(LogLevel::Debug, "should be dropped");
  DARL_LOG_INFO << "also dropped";
  set_log_level(before);
}

struct FormatProbe {
  int* calls;
};

std::ostream& operator<<(std::ostream& os, const FormatProbe& p) {
  ++*p.calls;
  return os << "probe";
}

TEST(Log, DroppedLinesNeverFormatTheirArguments) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Off);
  int calls = 0;
  DARL_LOG_ERROR << "expensive " << FormatProbe{&calls};
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(log_enabled(LogLevel::Error));
  set_log_level(before);
}

// ---------------------------------------------------------------- misc

TEST(Stopwatch, TimeAdvancesAndResets) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double t1 = sw.seconds();
  EXPECT_GT(t1, 0.0);
  sw.reset();
  EXPECT_LE(sw.seconds(), t1 + 1.0);
  EXPECT_GT(sw.millis(), -1.0);
}

TEST(TextTable, RuleSeparatesSections) {
  TextTable t;
  t.set_columns({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.render(2);
  // Rendered with a 2-space indent and an extra internal rule.
  EXPECT_EQ(s.find("  +"), 0u);
  EXPECT_EQ(t.row_count(), 2u);
  int rules = 0;
  std::istringstream iss(s);
  std::string line;
  while (std::getline(iss, line)) {
    if (line.find("+-") != std::string::npos) ++rules;
  }
  EXPECT_EQ(rules, 4);  // top, header, internal, bottom
}

TEST(Splitmix, IsDeterministicAndMixes) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Single-bit input changes flip roughly half the output bits.
  const std::uint64_t a = splitmix64(0x1234);
  const std::uint64_t b = splitmix64(0x1235);
  int flipped = 0;
  for (int i = 0; i < 64; ++i) {
    if (((a ^ b) >> i) & 1u) ++flipped;
  }
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

// ---------------------------------------------------------------- parse

TEST(Parse, CountAcceptsPlainDecimal) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("42"), 42u);
  EXPECT_EQ(parse_count("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, CountRejectsSignedValues) {
  // strtoull alone reads "-1" as 2^64-1.
  EXPECT_FALSE(parse_count("-1"));
  EXPECT_FALSE(parse_count("-0"));
  EXPECT_FALSE(parse_count("+1"));
}

TEST(Parse, CountRejectsTrailingText) {
  EXPECT_FALSE(parse_count("12abc"));
  EXPECT_FALSE(parse_count("12 "));
  EXPECT_FALSE(parse_count("1.5"));
  EXPECT_FALSE(parse_count("0x10"));
}

TEST(Parse, CountRejectsEmptyAndLeadingWhitespace) {
  EXPECT_FALSE(parse_count(""));
  EXPECT_FALSE(parse_count(" 7"));
  EXPECT_FALSE(parse_count("\t7"));
}

TEST(Parse, CountRejectsOverflow) {
  EXPECT_FALSE(parse_count("18446744073709551616"));
  EXPECT_FALSE(parse_count("99999999999999999999999"));
}

TEST(Parse, RealAcceptsSignedDecimalAndExponent) {
  EXPECT_EQ(parse_real("0.5"), 0.5);
  EXPECT_EQ(parse_real("-1"), -1.0);
  EXPECT_EQ(parse_real("+2.25"), 2.25);
  EXPECT_EQ(parse_real("1e-3"), 1e-3);
  EXPECT_EQ(parse_real("3"), 3.0);
}

TEST(Parse, RealRejectsNonFinite) {
  EXPECT_FALSE(parse_real("inf"));
  EXPECT_FALSE(parse_real("-inf"));
  EXPECT_FALSE(parse_real("nan"));
  EXPECT_FALSE(parse_real("1e999"));
}

TEST(Parse, RealRejectsTrailingTextAndBlank) {
  EXPECT_FALSE(parse_real(""));
  EXPECT_FALSE(parse_real(" 1"));
  EXPECT_FALSE(parse_real("0.5x"));
  EXPECT_FALSE(parse_real("1.0 "));
  EXPECT_FALSE(parse_real("abc"));
}

// ---------------------------------------------------------------- error

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    DARL_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace darl
