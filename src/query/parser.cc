#include "query/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <vector>

#include "common/strings.h"

namespace lshap {

namespace {

enum class TokKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokKind kind;
  std::string text;  // identifiers keep case; strings are unquoted content
};

// Lexer for the SPJU SQL dialect. Keywords stay kIdent; the parser matches
// them case-insensitively.
Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      out.push_back({TokKind::kIdent, sql.substr(start, i - start)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
                       ((sql[i] == '+' || sql[i] == '-') && i > start &&
                        (sql[i - 1] == 'e' || sql[i - 1] == 'E')))) {
        ++i;
      }
      out.push_back({TokKind::kNumber, sql.substr(start, i - start)});
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string content;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // '' escape
            content += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        content += sql[i++];
      }
      if (!closed) return Status::InvalidArgument("unterminated string");
      out.push_back({TokKind::kString, std::move(content)});
      continue;
    }
    // Multi-char symbols first.
    if (i + 1 < n) {
      const std::string two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        out.push_back({TokKind::kSymbol, two});
        i += 2;
        continue;
      }
    }
    if (c == '=' || c == '<' || c == '>' || c == '.' || c == ',' ||
        c == '(' || c == ')' || c == '*' || c == '%') {
      out.push_back({TokKind::kSymbol, std::string(1, c)});
      ++i;
      continue;
    }
    return Status::InvalidArgument(
        StrFormat("unexpected character '%c' at offset %zu", c, i));
  }
  out.push_back({TokKind::kEnd, ""});
  return out;
}

// A number token as an INT or DOUBLE literal. The whole token must parse and
// its value must fit the type: "1.2.3", "1e" and "1e309" are errors, not
// 1.2, 1 and a throw.
Result<Value> ParseNumber(const std::string& text) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  Value value;
  std::from_chars_result parsed{};
  if (text.find_first_of(".eE") != std::string::npos) {
    double d = 0.0;
    parsed = std::from_chars(begin, end, d);
    value = Value(d);
  } else {
    int64_t i = 0;
    parsed = std::from_chars(begin, end, i);
    value = Value(i);
  }
  if (parsed.ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("numeric literal '" + text +
                                   "' is out of range");
  }
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return Status::InvalidArgument("malformed numeric literal '" + text + "'");
  }
  return value;
}

class Parser {
 public:
  Parser(const Database& db, std::vector<Token> tokens)
      : db_(db), tokens_(std::move(tokens)) {}

  Result<Query> Parse(const std::string& id) {
    Query q;
    q.id = id;
    for (;;) {
      auto block = ParseBlock();
      if (!block.ok()) return block.status();
      q.blocks.push_back(std::move(*block));
      if (!AcceptKeyword("UNION")) break;
    }
    if (!AtEnd()) {
      return Status::InvalidArgument("trailing input after query: '" +
                                     Peek().text + "'");
    }
    return q;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  bool PeekKeyword(const char* kw) const {
    return Peek().kind == TokKind::kIdent && ToLower(Peek().text) ==
                                                 ToLower(kw);
  }
  bool AcceptKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  Status ExpectKeyword(const char* kw) {
    if (AcceptKeyword(kw)) return Status::Ok();
    return Status::InvalidArgument(std::string("expected ") + kw + " near '" +
                                   Peek().text + "'");
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<ColumnRef> ParseColumnRef() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected table name, got '" +
                                     Peek().text + "'");
    }
    ColumnRef ref;
    ref.table = Advance().text;
    if (!AcceptSymbol(".")) {
      return Status::InvalidArgument(
          "expected qualified column reference 'table.column' after '" +
          ref.table + "'");
    }
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected column name after '" +
                                     ref.table + ".'");
    }
    ref.column = Advance().text;
    auto table = db_.FindTable(ref.table);
    if (!table.ok()) return table.status();
    auto col = (*table)->schema().ColumnIndex(ref.column);
    if (!col.ok()) return col.status();
    return ref;
  }

  Result<SpjBlock> ParseBlock() {
    SpjBlock block;
    Status s = ExpectKeyword("SELECT");
    if (!s.ok()) return s;
    (void)AcceptKeyword("DISTINCT");
    // Projections.
    do {
      auto ref = ParseColumnRef();
      if (!ref.ok()) return ref.status();
      block.projections.push_back(std::move(*ref));
    } while (AcceptSymbol(","));

    s = ExpectKeyword("FROM");
    if (!s.ok()) return s;
    do {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected table name in FROM");
      }
      const std::string table = Advance().text;
      auto found = db_.FindTable(table);
      if (!found.ok()) return found.status();
      block.tables.push_back(table);
    } while (AcceptSymbol(","));

    if (AcceptKeyword("WHERE")) {
      do {
        Status cond = ParseCondition(block);
        if (!cond.ok()) return cond;
      } while (AcceptKeyword("AND"));
    }
    return block;
  }

  Status ParseCondition(SpjBlock& block) {
    auto lhs = ParseColumnRef();
    if (!lhs.ok()) return lhs.status();

    CompareOp op;
    if (AcceptKeyword("LIKE")) {
      if (Peek().kind != TokKind::kString) {
        return Status::InvalidArgument("LIKE requires a string pattern");
      }
      std::string pattern = Advance().text;
      if (pattern.empty() || pattern.back() != '%') {
        return Status::InvalidArgument(
            "only prefix LIKE patterns ('abc%') are supported");
      }
      pattern.pop_back();
      if (pattern.find('%') != std::string::npos) {
        return Status::InvalidArgument(
            "only prefix LIKE patterns ('abc%') are supported");
      }
      block.selections.push_back(
          {std::move(*lhs), CompareOp::kStartsWith, Value(pattern)});
      return Status::Ok();
    }
    if (AcceptSymbol("=")) {
      op = CompareOp::kEq;
    } else if (AcceptSymbol("<>") || AcceptSymbol("!=")) {
      op = CompareOp::kNe;
    } else if (AcceptSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (AcceptSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (AcceptSymbol("<")) {
      op = CompareOp::kLt;
    } else if (AcceptSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Status::InvalidArgument("expected comparison operator near '" +
                                     Peek().text + "'");
    }

    // Column–column comparison (only equi-joins are in the fragment).
    if (Peek().kind == TokKind::kIdent && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].kind == TokKind::kSymbol &&
        tokens_[pos_ + 1].text == ".") {
      if (op != CompareOp::kEq) {
        return Status::InvalidArgument(
            "column-column comparisons must be equi-joins");
      }
      auto rhs = ParseColumnRef();
      if (!rhs.ok()) return rhs.status();
      JoinPred join{std::move(*lhs), std::move(*rhs)};
      join.Normalize();
      block.joins.push_back(std::move(join));
      return Status::Ok();
    }

    // Literal comparison. NULL is the literal Value::Null() — such a
    // predicate is unknown for every row (evaluator compiles it to kNever),
    // but it must round-trip through ToSql()/ParseQuery like any literal
    // the generator can emit under null_prob.
    Value literal;
    if (AcceptKeyword("NULL")) {
      literal = Value::Null();
    } else if (Peek().kind == TokKind::kString) {
      literal = Value(Advance().text);
    } else if (Peek().kind == TokKind::kNumber) {
      auto number = ParseNumber(Advance().text);
      if (!number.ok()) return number.status();
      literal = std::move(*number);
    } else {
      return Status::InvalidArgument("expected literal near '" + Peek().text +
                                     "'");
    }
    block.selections.push_back({std::move(*lhs), op, std::move(literal)});
    return Status::Ok();
  }

  const Database& db_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const Database& db, const std::string& sql,
                         const std::string& id) {
  auto tokens = Lex(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(db, std::move(*tokens));
  return parser.Parse(id);
}

}  // namespace lshap
