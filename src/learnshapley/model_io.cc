#include "learnshapley/model_io.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <sstream>

#include "common/fileio.h"
#include "common/strings.h"
#include "corpus/format.h"

namespace lshap {

namespace {

constexpr char kHeader[] = "LSHAP_MODEL 4";

// A file's last line: FNV-1a (the corpus shards' primitive) over the
// first `n` bytes of `text`, which are every byte before that line.
std::string ChecksumLine(const std::string& text, size_t n) {
  return StrFormat("checksum %016llx\n", static_cast<unsigned long long>(
                                             FnvChecksum(text.data(), n)));
}
constexpr size_t kChecksumLineSize = sizeof("checksum 0123456789abcdef\n") - 1;

// True when the product of `factors` does not overflow and is at most
// `limit`.
bool ProductAtMost(std::initializer_list<size_t> factors, size_t limit) {
  size_t product = 1;
  for (size_t f : factors) {
    if (__builtin_mul_overflow(product, f, &product)) return false;
  }
  return product <= limit;
}

}  // namespace

Status SaveRanker(LearnShapleyRanker& ranker, const std::string& path) {
  std::ostringstream out;
  const EncoderConfig& cfg = ranker.model().encoder_config();
  out << kHeader << '\n';
  out << "name " << ranker.name() << '\n';
  out << "config " << cfg.vocab_size << ' ' << cfg.max_len << ' ' << cfg.dim
      << ' ' << cfg.num_heads << ' ' << cfg.num_layers << ' ' << cfg.ffn_dim
      << ' ' << cfg.seed << '\n';
  out << "ranker " << ranker.max_len() << ' '
      << StrFormat("%a", static_cast<double>(ranker.shapley_scale())) << '\n';

  // Vocabulary (skip the builtin specials; they are recreated on load).
  const Vocab& vocab = ranker.vocab();
  out << "vocab " << (vocab.size() - Vocab::kNumSpecial) << '\n';
  for (size_t i = Vocab::kNumSpecial; i < vocab.size(); ++i) {
    out << vocab.token(static_cast<int>(i)) << '\n';
  }

  // Weights: one tensor per line, lossless hex floats. They are the only
  // weights stored; a quantized ranker re-derives its int8 model on load.
  std::vector<Param*> params = ranker.model().Params();
  out << "tensors " << params.size() << '\n';
  for (Param* p : params) {
    out << p->value.rows() << ' ' << p->value.cols();
    for (size_t i = 0; i < p->value.size(); ++i) {
      out << ' ' << StrFormat("%a", static_cast<double>(p->value.data()[i]));
    }
    out << '\n';
  }
  out << "mode " << InferenceModeName(ranker.config().mode) << '\n';

  std::string text = out.str();
  text += ChecksumLine(text, text.size());
  return WriteFileAtomic(path, text);
}

Result<std::unique_ptr<LearnShapleyRanker>> LoadRanker(
    const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& text = *bytes;
  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("model file '" + path + "': " + what);
  };

  // Header, then the checksum, before anything else is parsed.
  if (text.compare(0, sizeof(kHeader), std::string(kHeader) + '\n') != 0) {
    return bad("missing header");
  }
  const size_t body_size =
      text.size() - std::min(text.size(), kChecksumLineSize);
  if (body_size < sizeof(kHeader) || text[body_size - 1] != '\n' ||
      text.compare(body_size, 9, "checksum ") != 0) {
    return bad("missing checksum");
  }
  if (text.compare(body_size, kChecksumLineSize,
                   ChecksumLine(text, body_size)) != 0) {
    return bad("checksum mismatch");
  }
  std::istringstream in(text.substr(sizeof(kHeader), body_size -
                                                         sizeof(kHeader)));

  std::string line;
  // True when a line's stream holds nothing past the fields already read.
  auto at_end = [](std::istream& ls) {
    std::string extra;
    return !(ls >> extra);
  };
  // Reads n whitespace-separated floats (lossless hex) into `out`. Each
  // token must parse whole: "zz" is malformed, not 0.
  auto read_floats = [&](std::istream& ls, float* out, size_t n,
                         const std::string& what) {
    for (size_t i = 0; i < n; ++i) {
      std::string token;
      if (!(ls >> token)) return bad("truncated " + what);
      char* end = nullptr;
      out[i] = std::strtof(token.c_str(), &end);
      if (end != token.c_str() + token.size()) {
        return bad("malformed " + what + " value '" + token + "'");
      }
    }
    return Status::Ok();
  };

  if (!std::getline(in, line) || !StartsWith(line, "name ")) {
    return bad("missing name");
  }
  const std::string name = line.substr(5);

  EncoderConfig cfg;
  {
    if (!std::getline(in, line)) return bad("missing config");
    std::istringstream ls(line);
    std::string word;
    ls >> word >> cfg.vocab_size >> cfg.max_len >> cfg.dim >> cfg.num_heads >>
        cfg.num_layers >> cfg.ffn_dim >> cfg.seed;
    if (word != "config" || !ls) return bad("malformed config");
    if (!at_end(ls)) return bad("trailing fields on the config line");
  }
  size_t ranker_max_len = 0;
  float shapley_scale = 0.0f;
  {
    if (!std::getline(in, line)) return bad("missing ranker line");
    std::istringstream ls(line);
    std::string word;
    ls >> word >> ranker_max_len;
    if (word != "ranker" || !ls) return bad("malformed ranker line");
    Status st = read_floats(ls, &shapley_scale, 1, "shapley scale");
    if (!st.ok()) return st;
    if (!at_end(ls)) return bad("trailing fields on the ranker line");
    // Scores are divided by the scale.
    if (!std::isfinite(shapley_scale) || shapley_scale <= 0.0f) {
      return bad(StrFormat("shapley scale %g must be finite and positive",
                           static_cast<double>(shapley_scale)));
    }
  }
  // Checked before any model is built: the attention constructor divides
  // by num_heads, and the encoder aborts on inputs longer than max_len. A
  // ranker input holds [CLS] and two [SEP]s.
  if (cfg.dim == 0 || cfg.num_heads == 0) {
    return bad("dim and num_heads must be at least 1");
  }
  if (cfg.dim % cfg.num_heads != 0) {
    return bad(StrFormat("dim %zu is not divisible by num_heads %zu",
                         cfg.dim, cfg.num_heads));
  }
  if (ranker_max_len < 3 || ranker_max_len > cfg.max_len) {
    return bad(StrFormat("ranker max_len %zu outside [3, %zu]",
                         ranker_max_len, cfg.max_len));
  }

  auto vocab = std::make_shared<Vocab>();
  {
    if (!std::getline(in, line)) return bad("missing vocab");
    std::istringstream ls(line);
    std::string word;
    size_t count = 0;
    ls >> word >> count;
    if (word != "vocab" || !ls) return bad("malformed vocab line");
    if (!at_end(ls)) return bad("trailing fields on the vocab line");
    for (size_t i = 0; i < count; ++i) {
      if (!std::getline(in, line)) return bad("truncated vocab");
      vocab->AddTokens({line});
    }
    if (vocab->size() != cfg.vocab_size) return bad("vocab size mismatch");
  }

  // Every stored value takes at least two bytes (a separator and a digit),
  // so tensors that cannot fit in the file are rejected before the model
  // allocates them. With dim >= 1 these products bound every tensor.
  const size_t max_values = body_size / 2;
  if (!ProductAtMost({cfg.vocab_size, cfg.dim}, max_values) ||
      !ProductAtMost({cfg.max_len, cfg.dim}, max_values) ||
      !ProductAtMost({cfg.num_layers, cfg.dim, cfg.dim}, max_values) ||
      !ProductAtMost({cfg.num_layers, cfg.dim, cfg.ffn_dim}, max_values)) {
    return bad(StrFormat("config tensors do not fit in %zu values",
                         max_values));
  }

  LearnShapleyModel model(cfg, cfg.seed);
  std::vector<Param*> params = model.Params();
  {
    if (!std::getline(in, line)) return bad("missing tensors");
    std::istringstream ls(line);
    std::string word;
    size_t count = 0;
    ls >> word >> count;
    if (word != "tensors" || count != params.size()) {
      return bad("tensor count mismatch");
    }
    if (!at_end(ls)) return bad("trailing fields on the tensors line");
  }
  for (Param* p : params) {
    if (!std::getline(in, line)) return bad("truncated tensors");
    std::istringstream ls(line);
    size_t rows = 0;
    size_t cols = 0;
    ls >> rows >> cols;
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return bad("tensor shape mismatch");
    }
    Status st = read_floats(ls, p->value.data(), p->value.size(),
                            "tensor data");
    if (!st.ok()) return st;
    if (!at_end(ls)) return bad("trailing fields on a tensor line");
  }

  RankerConfig config;
  if (!std::getline(in, line) || !StartsWith(line, "mode ")) {
    return bad("missing mode");
  }
  const std::string mode = line.substr(5);
  if (mode == InferenceModeName(InferenceMode::kQuantized)) {
    config.WithMode(InferenceMode::kQuantized);
  } else if (mode != InferenceModeName(InferenceMode::kFloat)) {
    return bad("unknown mode '" + mode + "'");
  }
  if (std::getline(in, line)) return bad("data after the mode line");

  auto ranker = std::make_unique<LearnShapleyRanker>(
      std::move(model), std::move(vocab), ranker_max_len, shapley_scale,
      name);
  // Quantizing is deterministic and the float weights round-trip exactly,
  // so the re-derived int8 model predicts what the saved one did.
  ranker->Configure(config);
  return ranker;
}

}  // namespace lshap
