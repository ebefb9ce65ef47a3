#include "learnshapley/model_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fileio.h"
#include "common/strings.h"
#include "corpus/format.h"

namespace lshap {

namespace {

// Canonical byte image of the quantized section, checksummed with the same
// FNV-1a primitive as the corpus shard format: per linear, the dims as
// little-endian u64s, then raw scale/bias floats, then raw int8 weights.
std::string QuantCanonicalBytes(const QuantizedShapleyModel& q) {
  std::string bytes;
  for (const QuantizedLinear* lin : q.AllLinears()) {
    const uint64_t dims[3] = {lin->in(), lin->out(), lin->in_pad()};
    bytes.append(reinterpret_cast<const char*>(dims), sizeof(dims));
    bytes.append(reinterpret_cast<const char*>(lin->scales().data()),
                 lin->scales().size() * sizeof(float));
    bytes.append(reinterpret_cast<const char*>(lin->bias().data()),
                 lin->bias().size() * sizeof(float));
    bytes.append(reinterpret_cast<const char*>(lin->weights().data()),
                 lin->weights().size());
  }
  return bytes;
}

}  // namespace

Status SaveRanker(LearnShapleyRanker& ranker, const std::string& path) {
  // Stream into the sibling temp path and rename into place on success, so
  // a crash mid-save never leaves a truncated model under the final name.
  const std::string tmp = TempWritePath(path);
  std::ofstream out(tmp);
  if (!out) return Status::Internal("cannot open '" + tmp + "' for write");

  const EncoderConfig& cfg = ranker.model().encoder_config();
  out << "LSHAP_MODEL 2\n";
  out << "name " << ranker.name() << '\n';
  out << "config " << cfg.vocab_size << ' ' << cfg.max_len << ' ' << cfg.dim
      << ' ' << cfg.num_heads << ' ' << cfg.num_layers << ' ' << cfg.ffn_dim
      << ' ' << cfg.seed << '\n';
  out << "ranker " << ranker.max_len() << '\n';

  // Vocabulary (skip the builtin specials; they are recreated on load).
  const Vocab& vocab = ranker.vocab();
  out << "vocab " << (vocab.size() - Vocab::kNumSpecial) << '\n';
  for (size_t i = Vocab::kNumSpecial; i < vocab.size(); ++i) {
    out << vocab.token(static_cast<int>(i)) << '\n';
  }

  // Weights: one tensor per line, lossless hex floats.
  std::vector<Param*> params = ranker.model().Params();
  out << "tensors " << params.size() << '\n';
  for (Param* p : params) {
    out << p->value.rows() << ' ' << p->value.cols();
    for (size_t i = 0; i < p->value.size(); ++i) {
      out << ' ' << StrFormat("%a", static_cast<double>(p->value.data()[i]));
    }
    out << '\n';
  }

  // Optional quantized section: present iff the ranker carries an int8
  // model.
  if (const QuantizedShapleyModel* q = ranker.quantized_model()) {
    const auto linears = q->AllLinears();
    out << "quant " << linears.size() << ' '
        << InferenceModeName(ranker.config().mode) << '\n';
    for (const QuantizedLinear* lin : linears) {
      out << "qlinear " << lin->in() << ' ' << lin->out() << ' '
          << lin->in_pad() << '\n';
      out << "qscales";
      for (float s : lin->scales()) {
        out << ' ' << StrFormat("%a", static_cast<double>(s));
      }
      out << '\n';
      out << "qbias";
      for (float b : lin->bias()) {
        out << ' ' << StrFormat("%a", static_cast<double>(b));
      }
      out << '\n';
      out << "qweights";
      for (int8_t w : lin->weights()) out << ' ' << static_cast<int>(w);
      out << '\n';
    }
    const std::string bytes = QuantCanonicalBytes(*q);
    out << "qchecksum "
        << StrFormat("%016llx", static_cast<unsigned long long>(FnvChecksum(
                                    bytes.data(), bytes.size())))
        << '\n';
  }

  out.flush();
  if (!out) {
    out.close();
    std::remove(tmp.c_str());
    return Status::Internal("write to '" + tmp + "' failed");
  }
  out.close();
  return CommitTempFile(path);
}

Result<std::unique_ptr<LearnShapleyRanker>> LoadRanker(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("model file '" + path + "': " + what);
  };

  std::string line;
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
  // Reads the next line as "<key> v0 v1 ..." with values.size() floats.
  auto read_float_line = [&](const std::string& key, const std::string& what,
                             std::vector<float>& values) {
    if (!std::getline(in, line)) return bad("truncated " + what);
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word != key) return bad("malformed " + what);
    return read_floats(ls, values.data(), values.size(), what);
  };

  if (!std::getline(in, line) || line != "LSHAP_MODEL 2") {
    return bad("missing header");
  }
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
  }
  size_t ranker_max_len = 0;
  {
    if (!std::getline(in, line)) return bad("missing ranker line");
    std::istringstream ls(line);
    std::string word;
    ls >> word >> ranker_max_len;
    if (word != "ranker" || !ls) return bad("malformed ranker line");
  }
  // Checked before any model is built: the attention constructor divides
  // by num_heads, and the encoder aborts on inputs longer than max_len. A
  // ranker input holds [CLS] and two [SEP]s.
  if (cfg.num_heads == 0) return bad("num_heads must be at least 1");
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
    for (size_t i = 0; i < count; ++i) {
      if (!std::getline(in, line)) return bad("truncated vocab");
      vocab->AddTokens({line});
    }
    if (vocab->size() != cfg.vocab_size) return bad("vocab size mismatch");
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
  }

  // Optional quantized section. The shapes come from quantizing the
  // just-loaded float model, then every scale/bias/weight is overwritten
  // with the stored values and cross-checked against the FNV-1a checksum.
  bool have_quant = false;
  InferenceMode quant_mode = InferenceMode::kQuantized;
  QuantizedShapleyModel qmodel;
  if (std::getline(in, line) && StartsWith(line, "quant ")) {
    std::istringstream ls(line);
    std::string word;
    std::string mode_name;
    size_t count = 0;
    ls >> word >> count >> mode_name;
    if (!ls) return bad("malformed quant line");
    if (mode_name == "float") {
      quant_mode = InferenceMode::kFloat;
    } else if (mode_name != "quantized") {
      return bad("unknown quant mode '" + mode_name + "'");
    }
    qmodel = QuantizedShapleyModel::FromModel(model);
    std::vector<QuantizedLinear*> linears = qmodel.MutableLinears();
    if (count != linears.size()) return bad("quant linear count mismatch");
    for (QuantizedLinear* lin : linears) {
      if (!std::getline(in, line)) return bad("truncated quant section");
      {
        std::istringstream qs(line);
        size_t in_dim = 0, out_dim = 0, in_pad = 0;
        qs >> word >> in_dim >> out_dim >> in_pad;
        if (word != "qlinear" || !qs || in_dim != lin->in() ||
            out_dim != lin->out() || in_pad != lin->in_pad()) {
          return bad("quant linear shape mismatch");
        }
      }
      Status st =
          read_float_line("qscales", "quant scales", lin->mutable_scales());
      if (st.ok()) {
        st = read_float_line("qbias", "quant bias", lin->mutable_bias());
      }
      if (!st.ok()) return st;
      if (!std::getline(in, line)) return bad("truncated quant weights");
      {
        std::istringstream qs(line);
        qs >> word;
        if (word != "qweights") return bad("malformed quant weights");
        for (int8_t& w : lin->mutable_weights()) {
          int v = 0;
          if (!(qs >> v) || v < -128 || v > 127) {
            return bad("truncated quant weights");
          }
          w = static_cast<int8_t>(v);
        }
      }
    }
    if (!std::getline(in, line) || !StartsWith(line, "qchecksum ")) {
      return bad("missing quant checksum");
    }
    const std::string bytes = QuantCanonicalBytes(qmodel);
    const std::string want =
        StrFormat("%016llx", static_cast<unsigned long long>(
                                 FnvChecksum(bytes.data(), bytes.size())));
    if (line.substr(10) != want) return bad("quant checksum mismatch");
    have_quant = true;
  }

  // The shapley_scale only affects the (monotone) rescaling of scores, not
  // the ranking; rankers are saved post-training so we keep the default.
  auto ranker = std::make_unique<LearnShapleyRanker>(
      std::move(model), std::move(vocab), ranker_max_len, 1000.0f, name);
  if (have_quant) {
    ranker->AdoptQuantizedModel(
        std::make_shared<const QuantizedShapleyModel>(std::move(qmodel)));
    ranker->Configure(RankerConfig{}.WithMode(quant_mode));
  }
  return ranker;
}

}  // namespace lshap
