// Pretty-printer for MetricsRegistry::ToJson() snapshots (the files that
// `--metrics-json=PATH` writes; see DESIGN.md §9). Reads one snapshot from
// a file argument or stdin and renders counters/gauges sorted by name,
// histograms with per-bucket bars, and the span forest as an indented tree
// with per-call latencies.
//
// The parser is a ~100-line recursive-descent JSON reader, deliberately
// self-contained: the repo has no external dependencies beyond
// googletest, and the snapshot grammar is small and
// machine-generated, so a general JSON library would be all dead weight.
// It accepts arbitrary well-formed JSON anyway — hand-edited snapshots and
// future fields parse fine — and fails with a position on malformed input.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + parser.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  // Insertion-ordered: snapshots are emitted sorted, keep them that way.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the full document; returns false with an error message on any
  // syntax error or trailing garbage.
  bool Parse(JsonValue* out, std::string* error) {
    bool ok = ParseValue(out) && (SkipWs(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = "parse error at byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The registry only escapes control bytes, so BMP-to-UTF-8 here
          // covers everything a real snapshot contains.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return ParseLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return ParseLiteral("null");
    }
    // Number.
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

std::string HumanCount(double v) {
  char buf[64];
  if (v >= 1e9) std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  else if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  else if (v >= 1e4) std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

std::string HumanSeconds(double s) {
  char buf[64];
  if (s >= 1.0) std::snprintf(buf, sizeof(buf), "%.3fs", s);
  else if (s >= 1e-3) std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  else std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  return buf;
}

void PrintScalars(const JsonValue& section, const char* title) {
  std::printf("\n%s\n", title);
  if (section.object.empty()) {
    std::printf("  (none)\n");
    return;
  }
  size_t width = 0;
  for (const auto& [name, v] : section.object) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, v] : section.object) {
    std::printf("  %-*s  %.6g\n", static_cast<int>(width), name.c_str(),
                v.number);
  }
}

void PrintHistograms(const JsonValue& section) {
  std::printf("\nhistograms\n");
  if (section.object.empty()) {
    std::printf("  (none)\n");
    return;
  }
  for (const auto& [name, h] : section.object) {
    const JsonValue* bounds = h.Find("upper_bounds");
    const JsonValue* counts = h.Find("counts");
    const JsonValue* count = h.Find("total_count");
    const JsonValue* sum = h.Find("sum");
    if (bounds == nullptr || counts == nullptr || count == nullptr) {
      std::printf("  %s: (malformed histogram entry)\n", name.c_str());
      continue;
    }
    const double total = count->number;
    const double mean = total > 0 && sum != nullptr ? sum->number / total : 0;
    std::printf("  %s  count=%s mean=%.6g\n", name.c_str(),
                HumanCount(total).c_str(), mean);
    double max_bucket = 1;
    for (const JsonValue& c : counts->array) {
      max_bucket = std::max(max_bucket, c.number);
    }
    for (size_t i = 0; i < counts->array.size(); ++i) {
      const double n = counts->array[i].number;
      if (n == 0) continue;  // sparse print: most buckets are empty
      const int bar = static_cast<int>(40.0 * n / max_bucket + 0.5);
      std::string label =
          i < bounds->array.size()
              ? "<= " + std::to_string(bounds->array[i].number)
              : "> last";
      std::printf("    %-16s %8s  %.*s\n", label.c_str(),
                  HumanCount(n).c_str(), bar,
                  "########################################");
    }
  }
}

void PrintSpan(const JsonValue& span, int depth, double parent_seconds) {
  const JsonValue* name = span.Find("name");
  const JsonValue* count = span.Find("count");
  const JsonValue* seconds = span.Find("seconds");
  const JsonValue* children = span.Find("children");
  if (name == nullptr || count == nullptr || seconds == nullptr) return;
  const double secs = seconds->number;
  const double calls = count->number;
  std::printf("  %*s%-*s  calls=%-8s total=%-10s per-call=%-10s", depth * 2,
              "", std::max(1, 28 - depth * 2), name->str.c_str(),
              HumanCount(calls).c_str(), HumanSeconds(secs).c_str(),
              HumanSeconds(calls > 0 ? secs / calls : 0).c_str());
  if (parent_seconds > 0) std::printf("  %5.1f%%", 100.0 * secs / parent_seconds);
  std::printf("\n");
  if (children != nullptr) {
    for (const JsonValue& child : children->array) {
      PrintSpan(child, depth + 1, secs);
    }
  }
}

bool ReadAll(std::FILE* f, std::string* out) {
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  return std::ferror(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && std::strcmp(argv[1], "--help") == 0)) {
    std::fprintf(stderr,
                 "usage: metrics_report [snapshot.json]\n"
                 "Pretty-prints a MetricsRegistry ToJson() snapshot "
                 "(reads stdin when no file is given).\n");
    return 2;
  }
  std::string text;
  if (argc == 2) {
    std::FILE* f = std::fopen(argv[1], "r");
    if (f == nullptr) {
      std::fprintf(stderr, "metrics_report: cannot open %s\n", argv[1]);
      return 1;
    }
    const bool ok = ReadAll(f, &text);
    std::fclose(f);
    if (!ok) {
      std::fprintf(stderr, "metrics_report: read error on %s\n", argv[1]);
      return 1;
    }
  } else if (!ReadAll(stdin, &text)) {
    std::fprintf(stderr, "metrics_report: read error on stdin\n");
    return 1;
  }

  JsonValue root;
  std::string error;
  JsonParser parser(text);
  if (!parser.Parse(&root, &error) ||
      root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "metrics_report: %s\n",
                 error.empty() ? "top-level value is not an object"
                               : error.c_str());
    return 1;
  }

  const JsonValue* counters = root.Find("counters");
  const JsonValue* gauges = root.Find("gauges");
  const JsonValue* histograms = root.Find("histograms");
  const JsonValue* spans = root.Find("spans");
  if (counters != nullptr) PrintScalars(*counters, "counters");
  if (gauges != nullptr) PrintScalars(*gauges, "gauges");
  if (histograms != nullptr) PrintHistograms(*histograms);
  std::printf("\nspans\n");
  if (spans == nullptr || spans->array.empty()) {
    std::printf("  (none)\n");
  } else {
    for (const JsonValue& s : spans->array) PrintSpan(s, 0, 0.0);
  }
  return 0;
}
