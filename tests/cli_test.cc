#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "common/parse.h"
#include "data/csv.h"
#include "data/synthetic.h"

namespace lipformer {
namespace cli {
namespace {

CliArgs ParseVec(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  return Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParseTest, CommandAndOptions) {
  CliArgs args = ParseVec({"prog", "train", "--model=dlinear",
                           "--epochs=7", "--covariates"});
  EXPECT_EQ(args.command, "train");
  EXPECT_EQ(args.Get("model", ""), "dlinear");
  EXPECT_EQ(args.GetInt("epochs", 0), 7);
  EXPECT_TRUE(args.Has("covariates"));
  EXPECT_FALSE(args.Has("csv"));
}

TEST(CliParseTest, DefaultsWhenMissing) {
  CliArgs args = ParseVec({"prog", "train"});
  EXPECT_EQ(args.Get("model", "lipformer"), "lipformer");
  EXPECT_EQ(args.GetInt("input", 96), 96);
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 0.2), 0.2);
}

TEST(CliParseTest, NonOptionArgumentsRecordedAsStragglers) {
  CliArgs args = ParseVec({"prog", "list", "stray", "--seed=1"});
  EXPECT_EQ(args.command, "list");
  EXPECT_EQ(args.GetInt("seed", 0), 1);
  ASSERT_EQ(args.stragglers.size(), 1u);
  EXPECT_EQ(args.stragglers[0], "stray");
}

TEST(CliParseTest, TrainingHyperparameterOptions) {
  CliArgs args = ParseVec({"prog", "train", "--lr=0.005", "--loss=huber",
                           "--patience=3"});
  EXPECT_TRUE(ValidateArgs(args).ok());
  EXPECT_DOUBLE_EQ(args.GetDouble("lr", 1e-3), 0.005);
  EXPECT_EQ(args.Get("loss", "mse"), "huber");
  EXPECT_EQ(args.GetInt("patience", 0), 3);
}

TEST(CliValidateTest, AcceptsKnownWellFormedOptions) {
  CliArgs args = ParseVec({"prog", "train", "--model=dlinear", "--epochs=2",
                           "--scale=0.1", "--covariates"});
  EXPECT_TRUE(ValidateArgs(args).ok());
}

TEST(CliValidateTest, RejectsUnknownOption) {
  CliArgs args = ParseVec({"prog", "train", "--learning-rate=0.01"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown option --learning-rate"),
            std::string::npos);
}

TEST(CliValidateTest, RejectsStragglerArgument) {
  CliArgs args = ParseVec({"prog", "train", "etth1"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'etth1'"), std::string::npos);
}

TEST(CliValidateTest, RejectsMalformedInteger) {
  CliArgs args = ParseVec({"prog", "train", "--epochs=five"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--epochs expects an integer"),
            std::string::npos);
}

TEST(CliValidateTest, RejectsMalformedDouble) {
  CliArgs args = ParseVec({"prog", "train", "--lr=0.01x"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--lr expects a number"), std::string::npos);
}

TEST(CliNumberParseTest, ParseInt64IsStrict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12abc", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999", &v));  // overflow
}

TEST(CliNumberParseTest, ParseDoubleIsStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("1e-3", &v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("0.1x", &v));
  EXPECT_FALSE(ParseDouble("nanx", &v));
}

TEST(CliNumberParseTest, ParseFloatIsStrict) {
  // The shared strict parser (common/parse.h) behind the bundle
  // metadata's dropout field.
  float v = 0;
  EXPECT_TRUE(lipformer::ParseFloat("0.1", &v));
  EXPECT_FLOAT_EQ(v, 0.1f);
  EXPECT_FALSE(lipformer::ParseFloat("", &v));
  EXPECT_FALSE(lipformer::ParseFloat("0.1garbage", &v));
  EXPECT_FALSE(lipformer::ParseFloat("1e99999", &v));  // overflow
}

TEST(CliLoadSeriesTest, RegistryDataset) {
  CliArgs args = ParseVec({"prog", "train", "--dataset=etth1",
                           "--scale=0.05"});
  TimeSeries series;
  double tr, va, te;
  ASSERT_TRUE(LoadSeries(args, &series, &tr, &va, &te));
  EXPECT_EQ(series.channels(), 7);
  EXPECT_DOUBLE_EQ(tr, 0.6);  // ETT split
}

TEST(CliLoadSeriesTest, UnknownDatasetFails) {
  CliArgs args = ParseVec({"prog", "train", "--dataset=nope"});
  TimeSeries series;
  double tr, va, te;
  EXPECT_FALSE(LoadSeries(args, &series, &tr, &va, &te));
}

TEST(CliLoadSeriesTest, CsvPath) {
  SeasonalConfig gen;
  gen.steps = 80;
  gen.channels = 2;
  const std::string path = ::testing::TempDir() + "/cli_series.csv";
  ASSERT_TRUE(WriteCsvTimeSeries(path, GenerateSeasonal(gen)).ok());
  CliArgs args = ParseVec({"prog", "train", std::string("--csv=") + path});
  TimeSeries series;
  double tr, va, te;
  ASSERT_TRUE(LoadSeries(args, &series, &tr, &va, &te));
  EXPECT_EQ(series.steps(), 80);
  EXPECT_DOUBLE_EQ(tr, 0.7);  // generic split for user CSVs
}

TEST(CliLoadSeriesTest, MissingCsvFails) {
  CliArgs args = ParseVec({"prog", "train", "--csv=/no/such/file.csv"});
  TimeSeries series;
  double tr, va, te;
  EXPECT_FALSE(LoadSeries(args, &series, &tr, &va, &te));
}

TEST(CliMainTest, UnknownCommandReturnsUsageCode) {
  std::vector<std::string> argv_strings = {"prog", "frobnicate"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2);
}

TEST(CliMainTest, UnknownOptionReturnsUsageCode) {
  std::vector<std::string> argv_strings = {"prog", "list", "--frobnicate=1"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2);
}

TEST(CliMainTest, ListSucceeds) {
  std::vector<std::string> argv_strings = {"prog", "list"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 0);
}

TEST(CliParseTest, RepeatedOptionsKeepEveryOccurrenceInOrder) {
  CliArgs args = ParseVec({"prog", "serve", "--load=a=one.ckpt",
                           "--max-batch=8", "--load=b=two.ckpt"});
  EXPECT_TRUE(ValidateArgs(args).ok());
  const std::vector<std::string> loads = args.GetAll("load");
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0], "a=one.ckpt");
  EXPECT_EQ(loads[1], "b=two.ckpt");
  // The last-wins map still answers single-value lookups.
  EXPECT_EQ(args.Get("load", ""), "b=two.ckpt");
  EXPECT_EQ(args.GetAll("max-batch"), std::vector<std::string>{"8"});
  EXPECT_TRUE(args.GetAll("absent").empty());
}

TEST(CliValidateTest, RejectsMalformedEarlierOccurrenceOfRepeatedOption) {
  // The map keeps only "--epochs=3"; the malformed first occurrence must
  // still be a usage error.
  CliArgs args = ParseVec({"prog", "train", "--epochs=zz", "--epochs=3"});
  const Status valid = ValidateArgs(args);
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.message().find("zz"), std::string::npos);
}

TEST(CliServeProtocolTest, SplitModelPrefix) {
  std::string model;
  std::string rest;
  ASSERT_TRUE(SplitModelPrefix("m1|1,2,3", &model, &rest));
  EXPECT_EQ(model, "m1");
  EXPECT_EQ(rest, "1,2,3");

  ASSERT_TRUE(SplitModelPrefix("1,2,3", &model, &rest));
  EXPECT_EQ(model, "");
  EXPECT_EQ(rest, "1,2,3");

  EXPECT_FALSE(SplitModelPrefix("|1,2,3", &model, &rest));
}

TEST(CliServeProtocolTest, ParseRequestValuesHappyPath) {
  std::vector<float> values;
  std::string error;
  ASSERT_TRUE(ParseRequestValues("1,2.5,-3,4e0", 4, &values, &error));
  ASSERT_EQ(values.size(), 4u);
  EXPECT_FLOAT_EQ(values[1], 2.5f);
  EXPECT_FLOAT_EQ(values[2], -3.0f);
}

TEST(CliServeProtocolTest, ParseErrorReportsTrueFieldCountAndBadToken) {
  std::vector<float> values;
  std::string error;
  // Bugfix: the old message reported the count at the first malformed
  // field ("got 2"), not the line's true field count.
  ASSERT_FALSE(ParseRequestValues("1,2,oops,4,5", 4, &values, &error));
  EXPECT_NE(error.find("needs 4"), std::string::npos);
  EXPECT_NE(error.find("got 5"), std::string::npos);
  EXPECT_NE(error.find("field 3"), std::string::npos);
  EXPECT_NE(error.find("'oops'"), std::string::npos);
}

TEST(CliServeProtocolTest, ParseErrorOnWrongCountAlone) {
  std::vector<float> values;
  std::string error;
  ASSERT_FALSE(ParseRequestValues("1,2", 4, &values, &error));
  EXPECT_NE(error.find("needs 4"), std::string::npos);
  EXPECT_NE(error.find("got 2"), std::string::npos);
  // All fields numeric: no offending token to name.
  EXPECT_EQ(error.find("field"), std::string::npos);
}

// The reference that ParseRequestValues must match field by field: the
// verdict and float bits of static_cast<float>(ParseDouble(field)).
bool ReferenceField(const std::string& field, float* out) {
  double value = 0.0;
  if (!ParseDouble(field, &value)) return false;
  *out = static_cast<float>(value);
  return true;
}

TEST(CliServeProtocolTest, ParseRequestValuesMatchesParseDoubleFieldByField) {
  const char* tokens[] = {"1",      " 1",     "+1",     "-0",  "1.",
                          ".5",     "1E-3",   "0x1p3",  "inf", "-Infinity",
                          "nan",    "1e-310", "1e-400", "1e400",
                          "3.4e39", "",       "1 ",     "1x",  "--1"};
  for (const char* token : tokens) {
    SCOPED_TRACE(std::string("token '") + token + "'");
    float want = 0.0f;
    const bool want_ok = ReferenceField(token, &want);
    // Alone on the line, and between two fields (where the parser must
    // stop at the ',').
    const std::string lines[] = {token, std::string("7,") + token + ",8"};
    const int64_t counts[] = {1, 3};
    const size_t at[] = {0, 1};
    for (int k = 0; k < 2; ++k) {
      std::vector<float> values;
      std::string error;
      const bool ok =
          ParseRequestValues(lines[k], counts[k], &values, &error);
      ASSERT_EQ(ok, want_ok) << lines[k] << ": " << error;
      if (!ok) continue;
      ASSERT_EQ(values.size(), static_cast<size_t>(counts[k]));
      EXPECT_EQ(std::memcmp(&values[at[k]], &want, sizeof(float)), 0)
          << values[at[k]] << " vs " << want;
    }
  }
}

TEST(CliServeProtocolTest, ParseRequestValuesFieldCounts) {
  std::vector<float> values;
  std::string error;
  // A trailing ',' does not open a field.
  ASSERT_TRUE(ParseRequestValues("1,2,", 2, &values, &error)) << error;
  EXPECT_EQ(values, (std::vector<float>{1.0f, 2.0f}));

  ASSERT_FALSE(ParseRequestValues(",1", 1, &values, &error));
  EXPECT_NE(error.find("got 2 (field 1: '' is not a number)"),
            std::string::npos)
      << error;
  ASSERT_FALSE(ParseRequestValues("1,,2", 2, &values, &error));
  EXPECT_NE(error.find("got 3 (field 2: '' is not a number)"),
            std::string::npos)
      << error;
  ASSERT_FALSE(ParseRequestValues("", 1, &values, &error));
  EXPECT_EQ(error, "error: request needs 1 comma-separated numbers, got 0");
}

TEST(CliServeProtocolTest, ParseRequestValuesFullRequestLine) {
  // One 336x21 request as clients print it ("%.3f"), compared bit for bit
  // against the field-by-field reference.
  constexpr int64_t kFields = 336 * 21;
  std::mt19937 rng(5);
  std::normal_distribution<double> noise(0.0, 20.0);
  std::string line;
  std::vector<float> want;
  char buf[64];
  for (int64_t i = 0; i < kFields; ++i) {
    std::snprintf(buf, sizeof(buf), "%.3f", noise(rng));
    if (i > 0) line += ',';
    line += buf;
    float value = 0.0f;
    ASSERT_TRUE(ReferenceField(buf, &value));
    want.push_back(value);
  }
  std::vector<float> values;
  std::string error;
  ASSERT_TRUE(ParseRequestValues(line, kFields, &values, &error)) << error;
  ASSERT_EQ(values.size(), want.size());
  EXPECT_EQ(std::memcmp(values.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
}

// FormatAnswer must print exactly what printf("%g") printed per value.
std::string ReferenceAnswer(const std::vector<float>& values) {
  std::string out;
  char buf[64];
  for (size_t j = 0; j < values.size(); ++j) {
    std::snprintf(buf, sizeof(buf), j == 0 ? "%g" : ",%g", values[j]);
    out += buf;
  }
  return out + "\n";
}

TEST(CliServeProtocolTest, FormatAnswerMatchesPrintfG) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> special = {
      0.0f,    -0.0f,    denorm, -denorm,    1e-40f,     -3e-39f,
      FLT_MIN, -FLT_MIN, FLT_MAX, -FLT_MAX,  1e-5f,      1e-4f,
      123456.0f, 1234567.0f, 999999.5f, inf, -inf,       nan,
      -nan};
  std::string answer;
  FormatAnswer(special.data(), static_cast<int64_t>(special.size()),
               &answer);
  EXPECT_EQ(answer, ReferenceAnswer(special));

  // 100k random finite bit patterns, in answer-sized chunks.
  std::mt19937 rng(11);
  std::vector<float> chunk;
  for (int batch = 0; batch < 50; ++batch) {
    chunk.clear();
    while (chunk.size() < 2000) {
      const uint32_t bits = static_cast<uint32_t>(rng());
      float value;
      std::memcpy(&value, &bits, sizeof(value));
      if (std::isfinite(value)) chunk.push_back(value);
    }
    FormatAnswer(chunk.data(), static_cast<int64_t>(chunk.size()), &answer);
    ASSERT_EQ(answer, ReferenceAnswer(chunk)) << "batch " << batch;
  }

  FormatAnswer(nullptr, 0, &answer);
  EXPECT_EQ(answer, "\n");
}

}  // namespace
}  // namespace cli
}  // namespace lipformer
