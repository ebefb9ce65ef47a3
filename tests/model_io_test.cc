#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "corpus/corpus.h"
#include "datasets/imdb.h"
#include "learnshapley/model_io.h"
#include "learnshapley/trainer.h"
#include "ml/quant.h"

namespace lshap {
namespace {

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

  // Saves a quick-trained ranker to path_, applies `edit` to the file's
  // text, and loads the result.
  Result<std::unique_ptr<LearnShapleyRanker>> LoadEdited(
      const std::function<void(std::string&)>& edit) {
    TrainResult trained = QuickTrain();
    EXPECT_TRUE(SaveRanker(*trained.ranker, path_).ok());
    std::string text;
    {
      std::ifstream in(path_);
      std::stringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
    edit(text);
    {
      std::ofstream out(path_);
      out << text;
    }
    return LoadRanker(path_);
  }

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
  SimilarityMatrices sims_;
  std::string path_;
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
    // Scores may differ by the (monotone) shapley_scale factor; the ranking
    // must be identical and the underlying model outputs proportional.
    EXPECT_EQ(RankByScore(a), RankByScore(b));
    break;
  }
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

TEST_F(ModelIoTest, QuantizedSectionRoundTrips) {
  TrainResult trained = QuickTrain();
  trained.ranker->Configure(
      RankerConfig{}.WithMode(InferenceMode::kQuantized));
  ASSERT_NE(trained.ranker->quantized_model(), nullptr);
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());

  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->config().mode, InferenceMode::kQuantized);
  ASSERT_NE((*loaded)->quantized_model(), nullptr);

  // The int8 weights, scales and biases round-trip losslessly: identical
  // quantized predictions on a fixed input.
  EncodedPair input;
  input.ids = {Vocab::kCls, 7, 9, Vocab::kSep, 11};
  input.mask.assign(input.ids.size(), true);
  QuantScratch a, b;
  EXPECT_EQ(trained.ranker->quantized_model()->PredictShapley(input, a),
            (*loaded)->quantized_model()->PredictShapley(input, b));

  // And so do the float weights next to them.
  EXPECT_EQ(trained.ranker->model().PredictShapley(input),
            (*loaded)->model().PredictShapley(input));
}

TEST_F(ModelIoTest, CorruptedQuantSectionIsRejected) {
  TrainResult trained = QuickTrain();
  trained.ranker->Configure(
      RankerConfig{}.WithMode(InferenceMode::kQuantized));
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());

  // Flip one int8 weight in the stored text. The per-line parse still
  // succeeds — only the FNV-1a checksum can catch it.
  std::string contents;
  {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    contents = ss.str();
  }
  const size_t pos = contents.find("\nqweights ");
  ASSERT_NE(pos, std::string::npos);
  const size_t val_pos = pos + std::string("\nqweights ").size();
  // Replace the first weight with a different in-range value.
  const size_t val_end = contents.find_first_of(" \n", val_pos);
  const int old_val = std::atoi(contents.substr(val_pos).c_str());
  const int new_val = old_val == 13 ? 14 : 13;
  contents.replace(val_pos, val_end - val_pos, std::to_string(new_val));
  {
    std::ofstream out(path_);
    out << contents;
  }

  auto loaded = LoadRanker(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace lshap
