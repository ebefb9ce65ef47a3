#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/rng.h"
#include "common/strings.h"
#include "corpus/corpus.h"
#include "corpus/format.h"
#include "datasets/imdb.h"
#include "learnshapley/model_io.h"
#include "learnshapley/trainer.h"
#include "ml/quant.h"

namespace lshap {
namespace {

std::string ReadText(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

void WriteText(const std::string& path, const std::string& text) {
  ASSERT_TRUE(WriteFileAtomic(path, text).ok());
}

// Re-seals an edited model file: drops its last line if that is a checksum
// line, and appends a checksum over every byte before it, so the load runs
// past the checksum check.
void Reseal(std::string& text) {
  if (!text.empty() && text.back() != '\n') text += '\n';
  const size_t last =
      text.size() < 2 ? std::string::npos : text.rfind('\n', text.size() - 2);
  const size_t begin = last == std::string::npos ? 0 : last + 1;
  if (text.compare(begin, 9, "checksum ") == 0) text.resize(begin);
  text += StrFormat("checksum %016llx\n",
                    static_cast<unsigned long long>(
                        FnvChecksum(text.data(), text.size())));
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

class ModelIoTest : public ::testing::Test {
 protected:
  ModelIoTest() : data_(MakeImdbDatabase({})), pool_(2) {
    CorpusConfig cfg;
    cfg.seed = 12;
    cfg.num_base_queries = 8;
    cfg.max_outputs_per_query = 6;
    cfg.query_gen.max_tables = 3;
    corpus_ = BuildCorpus(*data_.db, data_.graph, cfg, pool_);
    sims_ = ComputeSimilarityMatrices(corpus_, 6, pool_);
    path_ = ::testing::TempDir() + "/model_io_test.lshapm";
  }
  ~ModelIoTest() override { std::remove(path_.c_str()); }

  TrainResult QuickTrain() {
    TrainConfig cfg;
    cfg.do_pretrain = false;
    cfg.finetune_epochs = 1;
    cfg.finetune_samples_per_epoch = 64;
    cfg.batch_size = 32;
    cfg.seed = 13;
    return TrainLearnShapley(corpus_, sims_, cfg, pool_);
  }

  // Applies `edit` to the saved file of a quick-trained ranker (trained
  // once per test), re-seals the checksum, and loads the result.
  Result<std::unique_ptr<LearnShapleyRanker>> LoadEdited(
      const std::function<void(std::string&)>& edit) {
    if (saved_.empty()) {
      TrainResult trained = QuickTrain();
      EXPECT_TRUE(SaveRanker(*trained.ranker, path_).ok());
      saved_ = ReadText(path_);
    }
    std::string text = saved_;
    edit(text);
    Reseal(text);
    WriteText(path_, text);
    return LoadRanker(path_);
  }

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
  SimilarityMatrices sims_;
  std::string path_;
  std::string saved_;
};

// Offset of the line after the first line that starts with `key`.
size_t LineAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  return text.find('\n', at + 1) + 1;
}

// Replaces whitespace field `index` of the line starting at `begin`.
void SetField(std::string& text, size_t begin, size_t index,
              const std::string& value) {
  const size_t end = text.find('\n', begin);
  std::istringstream ls(text.substr(begin, end - begin));
  std::vector<std::string> fields;
  for (std::string f; ls >> f;) fields.push_back(f);
  ASSERT_LT(index, fields.size());
  fields[index] = value;
  std::string line = fields[0];
  for (size_t i = 1; i < fields.size(); ++i) line += " " + fields[i];
  text.replace(begin, end - begin, line);
}

// Sets field `index` (0 is the key itself) of the line starting with `key`.
void SetKeyField(std::string& text, const std::string& key, size_t index,
                 const std::string& value) {
  const size_t at = text.find("\n" + key + " ");
  ASSERT_NE(at, std::string::npos) << key;
  SetField(text, at + 1, index, value);
}

void ExpectInvalid(const Result<std::unique_ptr<LearnShapleyRanker>>& loaded,
                   const std::string& message) {
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find(message), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ModelIoTest, SaveLoadPredictionsBitIdentical) {
  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), trained.ranker->name());

  for (size_t e : corpus_.test_idx) {
    const auto a = trained.ranker->Score(corpus_, e, 0);
    const auto b = (*loaded)->Score(corpus_, e, 0);
    ASSERT_EQ(a.size(), b.size());
    // The ranking must be identical; SaveLoadKeepsScores checks the values.
    EXPECT_EQ(RankByScore(a), RankByScore(b));
    break;
  }
}

// The file stores the score scale, so a reloaded ranker returns the very
// doubles of the ranker it was saved from (the default-trained scale is 10;
// the loader used to assume 1000 and divide every score by 100).
TEST_F(ModelIoTest, SaveLoadKeepsScores) {
  TrainResult trained = QuickTrain();
  ASSERT_EQ(trained.ranker->shapley_scale(), TrainConfig{}.shapley_scale);
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->shapley_scale(), trained.ranker->shapley_scale());

  size_t scored = 0;
  for (size_t e : corpus_.test_idx) {
    for (size_t c = 0; c < corpus_.entries[e].contributions.size(); ++c) {
      const ShapleyValues a = trained.ranker->Score(corpus_, e, c);
      const ShapleyValues b = (*loaded)->Score(corpus_, e, c);
      ASSERT_EQ(a.size(), b.size());
      for (const auto& [fact, value] : a) {
        ASSERT_EQ(b.count(fact), 1u);
        EXPECT_EQ(b.at(fact), value) << "entry " << e << " fact " << fact;
        ++scored;
      }
    }
  }
  EXPECT_GT(scored, 0u);
}

TEST_F(ModelIoTest, RawModelOutputsExactlyPreserved) {
  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Compare the raw head output on a fixed encoded input.
  EncodedPair input;
  input.ids = {Vocab::kCls, 7, 9, Vocab::kSep, 11};
  input.mask.assign(input.ids.size(), true);
  EXPECT_FLOAT_EQ(trained.ranker->model().PredictShapley(input),
                  (*loaded)->model().PredictShapley(input));
}

TEST_F(ModelIoTest, LoadRejectsGarbage) {
  {
    std::ofstream out(path_);
    out << "definitely not a model\n";
  }
  EXPECT_FALSE(LoadRanker(path_).ok());
  EXPECT_FALSE(LoadRanker(path_ + ".missing").ok());
}

// The config line is "config vocab max_len dim num_heads num_layers
// ffn_dim seed". A corrupt value there must fail the load before any model
// is built: zero heads used to divide by zero, an indivisible dim tripped a
// CHECK.
TEST_F(ModelIoTest, LoadRejectsZeroHeads) {
  ExpectInvalid(LoadEdited([](std::string& text) {
                  SetKeyField(text, "config", 4, "0");
                }),
                "num_heads must be at least 1");
}

// A config whose tensors hold more values than the file has bytes used to
// abort the load with std::bad_alloc while the model was being built.
TEST_F(ModelIoTest, LoadRejectsConfigLargerThanTheFile) {
  const struct {
    size_t field;
    const char* value;
  } kCases[] = {
      {5, "1000000000000"},         // num_layers
      {2, "1000000000000"},         // max_len
      {6, "100000000000"},          // ffn_dim
      {3, "1000000000000"},         // dim (4 heads divide it)
      {6, "18446744073709551615"},  // ffn_dim: the product overflows
  };
  for (const auto& c : kCases) {
    ExpectInvalid(LoadEdited([&](std::string& text) {
                    SetKeyField(text, "config", c.field, c.value);
                  }),
                  "config tensors do not fit");
  }
}

TEST_F(ModelIoTest, LoadRejectsDimNotDivisibleByHeads) {
  ExpectInvalid(LoadEdited([](std::string& text) {
                  SetKeyField(text, "config", 4, "5");  // dim is 48
                }),
                "is not divisible by num_heads 5");
}

// A ranker max_len above the encoder's used to load and then abort on the
// first long input.
TEST_F(ModelIoTest, LoadRejectsRankerMaxLenOutsideEncoderRange) {
  const size_t max_len = TrainConfig{}.max_len;
  ExpectInvalid(LoadEdited([&](std::string& text) {
                  SetKeyField(text, "ranker", 1, std::to_string(max_len + 1));
                }),
                "ranker max_len");
  ExpectInvalid(LoadEdited([](std::string& text) {
                  SetKeyField(text, "ranker", 1, "2");
                }),
                "ranker max_len 2 outside");
}

// A tensor value used to load silently as 0.
TEST_F(ModelIoTest, LoadRejectsMalformedTensorValue) {
  ExpectInvalid(LoadEdited([](std::string& text) {
                  SetField(text, LineAfter(text, "tensors"), 2, "zz");
                }),
                "malformed tensor data value 'zz'");
}

// Appends " <field>" to the line that starts at `begin`.
void AppendField(std::string& text, size_t begin, const std::string& field) {
  text.insert(text.find('\n', begin), " " + field);
}

// Each line parser reads a fixed number of fields; anything after them used
// to be ignored, so a re-sealed file with extra fields loaded as if they
// were not there.
TEST_F(ModelIoTest, LoadRejectsTrailingFields) {
  for (const char* key : {"config", "ranker", "vocab", "tensors"}) {
    ExpectInvalid(LoadEdited([&](std::string& text) {
                    const size_t at = text.find(std::string("\n") + key + " ");
                    AppendField(text, at + 1, "0x1p+0");
                  }),
                  std::string("trailing fields on the ") + key + " line");
  }
  ExpectInvalid(LoadEdited([](std::string& text) {
                  AppendField(text, LineAfter(text, "tensors"), "junk");
                }),
                "trailing fields on a tensor line");
  // The last tensor line too, right before the mode line.
  ExpectInvalid(LoadEdited([](std::string& text) {
                  const size_t mode = text.find("\nmode ");
                  AppendField(text, text.rfind('\n', mode - 1) + 1, "0");
                }),
                "trailing fields on a tensor line");
}

TEST_F(ModelIoTest, LoadRejectsUnknownMode) {
  ExpectInvalid(LoadEdited([](std::string& text) {
                  SetKeyField(text, "mode", 1, "int4");
                }),
                "unknown mode 'int4'");
}

// Version-2 files carried a second, int8 copy of the weights; they are no
// longer read.
TEST_F(ModelIoTest, LoadRejectsVersionTwoHeader) {
  ExpectInvalid(LoadEdited([](std::string& text) {
                  text.replace(0, text.find('\n'), "LSHAP_MODEL 2");
                }),
                "missing header");
}

// Version-3 files did not store the score scale.
TEST_F(ModelIoTest, LoadRejectsVersionThreeHeader) {
  ExpectInvalid(LoadEdited([](std::string& text) {
                  text.replace(0, text.find('\n'), "LSHAP_MODEL 3");
                }),
                "missing header");
}

// Scores are divided by the scale, so it must be a finite positive number.
TEST_F(ModelIoTest, LoadRejectsBadShapleyScale) {
  for (const char* scale : {"0x0p+0", "-0x1.4p+3", "inf", "nan", "1e39"}) {
    ExpectInvalid(LoadEdited([&](std::string& text) {
                    SetKeyField(text, "ranker", 2, scale);
                  }),
                  "must be finite and positive");
  }
  ExpectInvalid(LoadEdited([](std::string& text) {
                  SetKeyField(text, "ranker", 2, "ten");
                }),
                "malformed shapley scale value 'ten'");
  ExpectInvalid(LoadEdited([](std::string& text) {
                  const size_t begin = text.find("\nranker ") + 1;
                  const size_t end = text.find('\n', begin);
                  text.replace(begin, end - begin, "ranker 40");
                }),
                "truncated shapley scale");
}

// One hex digit of one weight, changed in place: every line still parses,
// so only the whole-file checksum can tell.
TEST_F(ModelIoTest, FlippedWeightFailsChecksum) {
  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  std::string text = ReadText(path_);
  const size_t line = LineAfter(text, "tensors");
  // The digit before the first value's binary exponent.
  const size_t exponent = text.find('p', line);
  ASSERT_LT(exponent, text.find('\n', line));
  char& digit = text[exponent - 1];
  digit = digit == '0' ? '1' : '0';
  WriteText(path_, text);
  ExpectInvalid(LoadRanker(path_), "checksum");
}

TEST_F(ModelIoTest, SaveIsAtomicAndRecoversFromKilledWriter) {
  // A writer killed mid-save leaves only a temp file; the final path never
  // holds a partial model.
  {
    std::ofstream out(TempWritePath(path_));
    out << "LSHAPM partial garbage from a dead process";
  }
  EXPECT_FALSE(LoadRanker(path_).ok());  // nothing committed

  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  // The save overwrote the stale temp, committed via rename, and cleaned up.
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::ifstream tmp(TempWritePath(path_));
  EXPECT_FALSE(tmp.good());
}

TEST_F(ModelIoTest, QuantizedModeRoundTrips) {
  TrainResult trained = QuickTrain();
  trained.ranker->Configure(
      RankerConfig{}.WithMode(InferenceMode::kQuantized));
  ASSERT_NE(trained.ranker->quantized_model(), nullptr);
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());

  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->config().mode, InferenceMode::kQuantized);
  ASSERT_NE((*loaded)->quantized_model(), nullptr);

  // The file holds only the float weights. The int8 model re-derived from
  // them on load predicts bit for bit what the saved one did, and so does
  // the float model.
  EncodedPair input;
  input.ids = {Vocab::kCls, 7, 9, Vocab::kSep, 11};
  input.mask.assign(input.ids.size(), true);
  QuantScratch a, b;
  EXPECT_TRUE(
      SameBits(trained.ranker->quantized_model()->PredictShapley(input, a),
               (*loaded)->quantized_model()->PredictShapley(input, b)));
  EXPECT_TRUE(SameBits(trained.ranker->model().PredictShapley(input),
                       (*loaded)->model().PredictShapley(input)));
}

// A small untrained ranker: the sweep needs a valid file, not a good model.
std::unique_ptr<LearnShapleyRanker> TinyRanker() {
  auto vocab = std::make_shared<Vocab>();
  vocab->AddTokens({"select", "from", "where", "movies", "title", "year"});
  EncoderConfig cfg;
  cfg.vocab_size = vocab->size();
  cfg.max_len = 16;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 16;
  cfg.seed = 3;
  auto ranker = std::make_unique<LearnShapleyRanker>(
      LearnShapleyModel(cfg, cfg.seed), std::move(vocab), 12, 1000.0f,
      "tiny");
  ranker->Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
  return ranker;
}

// The int8 model is derived from the float weights: re-running Configure
// after they change re-derives it. It used to keep the first int8 model.
TEST(RankerConfigureTest, RequantizesTheCurrentWeights) {
  std::unique_ptr<LearnShapleyRanker> ranker = TinyRanker();
  for (Param* p : ranker->model().Params()) {
    for (size_t i = 0; i < p->value.size(); ++i) p->value.data()[i] *= 2.0f;
  }
  ranker->Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
  EncodedPair input;
  input.ids = {Vocab::kCls, 6, 7, Vocab::kSep, 8};
  input.mask.assign(input.ids.size(), true);
  QuantScratch a, b;
  EXPECT_TRUE(SameBits(
      ranker->quantized_model()->PredictShapley(input, a),
      QuantizedShapleyModel::FromModel(ranker->model()).PredictShapley(input,
                                                                       b)));
}

// One seeded mutation of a model file: a bit flip, a truncation, a line
// deleted or duplicated, a random 1-20 digit number written into a count
// field of the config, ranker, vocab or tensors line, or a field appended
// to one of those lines or to a tensor line.
std::string MutateModel(const std::string& in, Rng& rng) {
  std::string out = in;
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    if (out[i] == '\n') starts.push_back(i + 1);
  }
  const size_t line = starts[rng.NextBounded(starts.size())];
  const size_t line_end = out.find('\n', line) + 1;
  switch (rng.NextBounded(6)) {
    case 0:
      out[rng.NextBounded(out.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      break;
    case 1:
      out.resize(rng.NextBounded(out.size()));
      break;
    case 2:
      out.erase(line, line_end - line);
      break;
    case 3:
      out.insert(line, out.substr(line, line_end - line));
      break;
    case 4: {
      static const char* const kKeys[] = {"config", "ranker", "vocab",
                                          "tensors"};
      const size_t pick = rng.NextBounded(std::size(kKeys) + 1);
      const size_t begin =
          pick < std::size(kKeys)
              ? out.find(std::string("\n") + kKeys[pick] + " ") + 1
              : LineAfter(out, "tensors");
      AppendField(out, begin, rng.NextBounded(2) ? "0x1p+0" : "junk");
      break;
    }
    default: {
      static const struct {
        const char* key;
        size_t fields;
      } kCountFields[] = {
          {"config", 7}, {"ranker", 1}, {"vocab", 1}, {"tensors", 1}};
      const auto& f = kCountFields[rng.NextBounded(4)];
      std::string number(1, static_cast<char>('1' + rng.NextBounded(9)));
      for (size_t d = rng.NextBounded(20); d > 0; --d) {
        number += static_cast<char>('0' + rng.NextBounded(10));
      }
      SetKeyField(out, f.key, 1 + rng.NextBounded(f.fields), number);
      break;
    }
  }
  return out;
}

TEST_F(ModelIoTest, SeededCorruptionSweepFailsCleanly) {
  ASSERT_TRUE(SaveRanker(*TinyRanker(), path_).ok());
  const std::string original = ReadText(path_);

  Rng rng(20261019);
  constexpr int kMutations = 600;
  size_t clean_loads = 0;
  size_t failures_past_checksum = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string mutated = MutateModel(original, rng);
    // Half the mutations carry a valid checksum, so parsing runs past it.
    if (i % 2 == 0) Reseal(mutated);
    WriteText(path_, mutated);

    auto loaded = LoadRanker(path_);
    SCOPED_TRACE(testing::Message() << "mutation " << i);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(loaded.status().message().empty());
      const std::string& message = loaded.status().message();
      if (message.find("checksum") == std::string::npos &&
          message.find("header") == std::string::npos) {
        ++failures_past_checksum;
      }
      continue;
    }
    ++clean_loads;
    EXPECT_GE((*loaded)->model().encoder_config().dim, 1u);
  }
  // The sweep reached both outcomes, and the parser behind the checksum.
  EXPECT_GT(clean_loads, 0u);
  EXPECT_GT(failures_past_checksum, 0u);
}

}  // namespace
}  // namespace lshap
