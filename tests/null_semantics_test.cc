// NULL semantics across the whole stack: the validity bitmap on ColumnData,
// every null-capable ingest surface, three-valued predicate evaluation,
// SQL join-null (and NaN-key) behavior, null-aware DISTINCT, parser support
// for NULL literals — golden pins proving that all-valid workloads are
// byte-identical to the pre-null engine, and a forced-bitmap database that
// must answer a join log exactly as the bitmap-free one does (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "datasets/academic.h"
#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "query/generator.h"
#include "query/parser.h"
#include "relational/database.h"
#include "relational/tuple.h"

namespace lshap {
namespace {

// ---------------------------------------------------------------------------
// Three-valued predicate logic.
// ---------------------------------------------------------------------------

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe,
                                 CompareOp::kStartsWith};

TEST(TriBoolTest, NullOperandIsUnknownForEveryOp) {
  const Value null = Value::Null();
  for (CompareOp op : kAllOps) {
    EXPECT_EQ(MatchesPredicate3(null, op, Value(int64_t{7})), TriBool::kUnknown)
        << CompareOpSql(op);
    EXPECT_EQ(MatchesPredicate3(Value(int64_t{7}), op, null), TriBool::kUnknown)
        << CompareOpSql(op);
    EXPECT_EQ(MatchesPredicate3(null, op, Value("x")), TriBool::kUnknown)
        << CompareOpSql(op);
    EXPECT_EQ(MatchesPredicate3(Value("x"), op, null), TriBool::kUnknown)
        << CompareOpSql(op);
    EXPECT_EQ(MatchesPredicate3(null, op, null), TriBool::kUnknown)
        << CompareOpSql(op);
    // The boolean wrapper maps unknown to "does not survive".
    EXPECT_FALSE(MatchesPredicate(null, op, Value(int64_t{7})))
        << CompareOpSql(op);
  }
  // NULL != NULL is unknown too (SQL), not true.
  EXPECT_EQ(MatchesPredicate3(null, CompareOp::kNe, null), TriBool::kUnknown);
}

TEST(TriBoolTest, NonNullComparisonsAreTwoValued) {
  const Value a(int64_t{1});
  const Value b(int64_t{2});
  EXPECT_EQ(MatchesPredicate3(a, CompareOp::kEq, a), TriBool::kTrue);
  EXPECT_EQ(MatchesPredicate3(a, CompareOp::kEq, b), TriBool::kFalse);
  EXPECT_EQ(MatchesPredicate3(a, CompareOp::kNe, b), TriBool::kTrue);
  EXPECT_EQ(MatchesPredicate3(a, CompareOp::kLt, b), TriBool::kTrue);
  EXPECT_EQ(MatchesPredicate3(b, CompareOp::kLe, a), TriBool::kFalse);
  EXPECT_EQ(MatchesPredicate3(b, CompareOp::kGt, a), TriBool::kTrue);
  EXPECT_EQ(MatchesPredicate3(a, CompareOp::kGe, b), TriBool::kFalse);
  EXPECT_EQ(MatchesPredicate3(Value("abcde"), CompareOp::kStartsWith,
                              Value("abc")),
            TriBool::kTrue);
  EXPECT_EQ(MatchesPredicate3(Value("abcde"), CompareOp::kStartsWith,
                              Value("xyz")),
            TriBool::kFalse);
  // A type mismatch between two non-null values is plain false, not unknown.
  EXPECT_EQ(MatchesPredicate3(a, CompareOp::kEq, Value("1")), TriBool::kFalse);
  EXPECT_TRUE(MatchesPredicate(a, CompareOp::kLt, b));
  EXPECT_FALSE(MatchesPredicate(b, CompareOp::kLt, a));
}

TEST(TriBoolTest, OrderingSupportsMinMaxConnectives) {
  // kFalse < kUnknown < kTrue, so AND == min and OR == max (Kleene K3).
  EXPECT_LT(static_cast<int>(TriBool::kFalse),
            static_cast<int>(TriBool::kUnknown));
  EXPECT_LT(static_cast<int>(TriBool::kUnknown),
            static_cast<int>(TriBool::kTrue));
}

// ---------------------------------------------------------------------------
// Validity bitmap mechanics on ColumnData (observed through Table).
// ---------------------------------------------------------------------------

TEST(ValidityBitmapTest, AllValidColumnStoresNoBitmap) {
  Database db("v");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value(i)}).ok());
  }
  const ColumnData& col = (*db.FindTable("t"))->column(0);
  EXPECT_FALSE(col.has_nulls());
  EXPECT_EQ(col.null_count(), 0u);
  EXPECT_TRUE(col.validity_words().empty());  // lazy: zero memory when valid
  for (size_t i = 0; i < 100; ++i) EXPECT_TRUE(col.valid(i));
}

TEST(ValidityBitmapTest, FirstNullBackfillsAndPacksWords) {
  Database db("v");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  RowBatch batch = db.BatchFor("t");
  // 70 valid rows (crosses the 64-bit word boundary), then null, then valid.
  for (int64_t i = 0; i < 70; ++i) batch.Begin().Int(i).End();
  batch.Begin().Null().End();
  batch.Begin().Int(71).End();
  db.Append(batch);
  const ColumnData& col = (*db.FindTable("t"))->column(0);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_EQ(col.null_count(), 1u);
  ASSERT_EQ(col.validity_words().size(), 2u);  // ceil(72 / 64)
  EXPECT_EQ(col.validity_words()[0], ~uint64_t{0});  // backfilled all-valid
  for (size_t i = 0; i < 72; ++i) {
    EXPECT_EQ(col.valid(i), i != 70) << "row " << i;
  }
  // Trailing bits beyond num_rows stay zero: fingerprints may hash the raw
  // words without masking.
  const uint64_t last = col.validity_words()[1];
  EXPECT_EQ(last >> (72 - 64), 0u);
  EXPECT_TRUE((*db.FindTable("t"))->GetValue(70, 0).is_null());
  EXPECT_EQ((*db.FindTable("t"))->GetValue(71, 0).AsInt(), 71);
}

// ---------------------------------------------------------------------------
// Every null-capable ingest surface produces the same table.
// ---------------------------------------------------------------------------

Schema MixedSchema() {
  return Schema("t", {{"a", ColumnType::kInt},
                      {"b", ColumnType::kDouble},
                      {"c", ColumnType::kString}});
}

// Rows: (1, 1.5, "x"), (NULL, NULL, NULL), (3, 3.5, "z").
void ExpectCanonicalRows(const Database& db) {
  const Table& t = **db.FindTable("t");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.GetValue(0, 0).AsInt(), 1);
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
  EXPECT_TRUE(t.GetValue(1, 1).is_null());
  EXPECT_TRUE(t.GetValue(1, 2).is_null());
  EXPECT_EQ(t.GetValue(2, 2).AsString(), "z");
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(t.column(c).has_nulls());
    EXPECT_EQ(t.column(c).null_count(), 1u);
  }
}

TEST(NullIngestTest, RowBatchSurface) {
  Database db("i");
  ASSERT_TRUE(db.AddTable(MixedSchema()).ok());
  RowBatch batch = db.BatchFor("t");
  batch.Begin().Int(1).Real(1.5).Str("x").End();
  batch.Begin().Null().Null().Null().End();
  batch.Begin().Int(3).Real(3.5).Str("z").End();
  db.Append(batch);
  ExpectCanonicalRows(db);
}

TEST(NullIngestTest, InsertSurface) {
  Database db("i");
  ASSERT_TRUE(db.AddTable(MixedSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Value(int64_t{1}), Value(1.5), Value("x")}).ok());
  ASSERT_TRUE(
      db.Insert("t", {Value::Null(), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(db.Insert("t", {Value(int64_t{3}), Value(3.5), Value("z")}).ok());
  ExpectCanonicalRows(db);
}

TEST(NullIngestTest, AllSurfacesFingerprintIdentically) {
  // A RowBatch staging Null() cells and Insert with Value::Null() build the
  // same table.
  auto build = [](bool batched) {
    auto db = std::make_unique<Database>("i");
    LSHAP_CHECK(db->AddTable(MixedSchema()).ok());
    if (batched) {
      RowBatch batch = db->BatchFor("t");
      batch.Begin().Int(1).Real(1.5).Str("x").End();
      batch.Begin().Null().Null().Null().End();
      batch.Begin().Int(3).Real(3.5).Str("z").End();
      db->Append(batch);
    } else {
      LSHAP_CHECK(
          db->Insert("t", {Value(int64_t{1}), Value(1.5), Value("x")}).ok());
      LSHAP_CHECK(
          db->Insert("t", {Value::Null(), Value::Null(), Value::Null()}).ok());
      LSHAP_CHECK(
          db->Insert("t", {Value(int64_t{3}), Value(3.5), Value("z")}).ok());
    }
    return db;
  };
  EXPECT_EQ(FactTableFingerprint(*build(true)),
            FactTableFingerprint(*build(false)));
}

TEST(NullIngestTest, AllValidRowBatchStoresNoBitmap) {
  // A batch that never stages Null() commits every column bitmap-free and
  // fingerprints like the same rows inserted one at a time.
  Database a("i");
  LSHAP_CHECK(a.AddTable(MixedSchema()).ok());
  RowBatch batch = a.BatchFor("t");
  batch.Begin().Int(4).Real(4.5).Str("x").End();
  batch.Begin().Int(5).Real(5.5).Str("y").End();
  a.Append(batch);
  Database b("i");
  LSHAP_CHECK(b.AddTable(MixedSchema()).ok());
  LSHAP_CHECK(b.Insert("t", {Value(int64_t{4}), Value(4.5), Value("x")}).ok());
  LSHAP_CHECK(b.Insert("t", {Value(int64_t{5}), Value(5.5), Value("y")}).ok());
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FALSE((*a.FindTable("t"))->column(c).has_nulls());
    EXPECT_TRUE((*a.FindTable("t"))->column(c).validity_words().empty());
  }
  EXPECT_EQ(FactTableFingerprint(a), FactTableFingerprint(b));
}

// ---------------------------------------------------------------------------
// Fingerprint covers validity: same cell bytes, different nullity.
// ---------------------------------------------------------------------------

TEST(FingerprintTest, DistinguishesNullFromPlaceholderZero) {
  // A null int cell stores placeholder 0; a null string cell stores string
  // id 0 (same bytes as the empty-pool sentinel). Databases whose cell
  // payloads are bit-identical but whose validity differs must fingerprint
  // differently.
  Database with_zero("f");
  LSHAP_CHECK(with_zero.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  LSHAP_CHECK(with_zero.Insert("t", {Value(int64_t{1})}).ok());
  LSHAP_CHECK(with_zero.Insert("t", {Value(int64_t{0})}).ok());
  Database with_null("f");
  LSHAP_CHECK(with_null.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  LSHAP_CHECK(with_null.Insert("t", {Value(int64_t{1})}).ok());
  LSHAP_CHECK(with_null.Insert("t", {Value::Null()}).ok());
  EXPECT_NE(FactTableFingerprint(with_zero), FactTableFingerprint(with_null));
}

// ---------------------------------------------------------------------------
// Join semantics: null keys match nothing; NaN keys match nothing.
// ---------------------------------------------------------------------------

struct JoinFixture {
  Database db{"j"};

  JoinFixture() {
    LSHAP_CHECK(db.AddTable(Schema("l", {{"k", ColumnType::kInt},
                                         {"d", ColumnType::kDouble},
                                         {"s", ColumnType::kString},
                                         {"tag", ColumnType::kString}}))
                    .ok());
    LSHAP_CHECK(db.AddTable(Schema("r", {{"k", ColumnType::kInt},
                                         {"d", ColumnType::kDouble},
                                         {"s", ColumnType::kString},
                                         {"name", ColumnType::kString}}))
                    .ok());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    RowBatch l = db.BatchFor("l");
    l.Begin().Int(1).Real(1.5).Str("p").Str("a").End();
    l.Begin().Null().Real(nan).Null().Str("b").End();
    l.Begin().Int(0).Real(0.0).Str("q").Str("c").End();
    db.Append(l);
    RowBatch r = db.BatchFor("r");
    r.Begin().Int(1).Real(1.5).Str("p").Str("x").End();
    r.Begin().Null().Real(nan).Null().Str("y").End();
    r.Begin().Int(0).Real(-0.0).Str("q").Str("z").End();
    db.Append(r);
    db.FreezeStringOrder();
  }

  std::vector<std::string> JoinOn(const std::string& key) {
    SpjBlock b;
    b.tables = {"l", "r"};
    b.joins.push_back({{"l", key}, {"r", key}});
    b.projections = {{"l", "tag"}, {"r", "name"}};
    Query q;
    q.id = "join_" + key;
    q.blocks.push_back(b);
    auto res = Evaluate(db, q);
    LSHAP_CHECK(res.ok());
    std::vector<std::string> got;
    for (const auto& t : res->tuples) got.push_back(OutputTupleToString(t));
    std::sort(got.begin(), got.end());
    return got;
  }
};

TEST(JoinNullTest, NullIntKeyMatchesNothing) {
  JoinFixture f;
  // Row b has a null key on both sides: SQL says NULL = NULL is unknown, so
  // it joins nothing — not even itself. Row c's key is the literal 0 that
  // null cells use as their placeholder; it must still join normally.
  EXPECT_EQ(f.JoinOn("k"), (std::vector<std::string>{"(a, x)", "(c, z)"}));
}

TEST(JoinNullTest, NullStringKeyMatchesNothing) {
  JoinFixture f;
  EXPECT_EQ(f.JoinOn("s"), (std::vector<std::string>{"(a, x)", "(c, z)"}));
}

TEST(JoinNullTest, NanDoubleKeyMatchesNothing) {
  JoinFixture f;
  // IEEE says NaN != NaN; hashing NaN to a bucket and matching on bit
  // pattern would disagree with that. NaN keys are excluded from the join
  // outright, like nulls. 0.0 and -0.0 compare equal and must still join.
  EXPECT_EQ(f.JoinOn("d"), (std::vector<std::string>{"(a, x)", "(c, z)"}));
}

// ---------------------------------------------------------------------------
// DISTINCT treats NULL as a value (SQL "not distinct" rule), and does not
// collapse NULL with the placeholder it happens to store.
// ---------------------------------------------------------------------------

TEST(DistinctNullTest, NullCollapsesWithNullButNotWithZero) {
  Database db("d");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kString}}))
                  .ok());
  RowBatch batch = db.BatchFor("t");
  batch.Begin().Int(0).Str("m").End();   // real 0 — placeholder collision
  batch.Begin().Null().Str("m").End();
  batch.Begin().Null().Str("m").End();   // duplicate (NULL, m)
  batch.Begin().Int(0).Str("m").End();   // duplicate (0, m)
  db.Append(batch);
  db.FreezeStringOrder();

  SpjBlock b;
  b.tables = {"t"};
  b.projections = {{"t", "a"}, {"t", "b"}};
  Query q;
  q.id = "distinct_null";
  q.blocks.push_back(b);
  auto res = Evaluate(db, q);
  ASSERT_TRUE(res.ok());
  std::vector<std::string> got;
  for (const auto& t : res->tuples) got.push_back(OutputTupleToString(t));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"(0, m)", "(NULL, m)"}));
}

// ---------------------------------------------------------------------------
// Parser: NULL literal round-trips, and compiles to an empty selection.
// ---------------------------------------------------------------------------

TEST(ParserNullTest, NullLiteralRoundTripsAndSelectsNothing) {
  ImdbConfig cfg;
  cfg.seed = 99;
  cfg.num_companies = 5;
  cfg.num_actors = 8;
  cfg.num_movies = 10;
  cfg.num_roles = 20;
  cfg.null_prob = 0.3;
  GeneratedDb data = MakeImdbDatabase(cfg);

  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt}) {
    SpjBlock b;
    b.tables = {"actors"};
    b.selections.push_back({{"actors", "age"}, op, Value::Null()});
    b.projections = {{"actors", "name"}};
    Query q;
    q.id = "null_lit";
    q.blocks.push_back(b);

    auto parsed = ParseQuery(*data.db, q.ToSql(), q.id);
    ASSERT_TRUE(parsed.ok()) << q.ToSql();
    EXPECT_EQ(parsed->ToSql(), q.ToSql());
    ASSERT_EQ(parsed->blocks.size(), 1u);
    ASSERT_EQ(parsed->blocks[0].selections.size(), 1u);
    EXPECT_TRUE(parsed->blocks[0].selections[0].literal.is_null());

    // `x OP NULL` is unknown for every row — nothing survives, even for
    // rows where x itself is NULL.
    auto res = Evaluate(*data.db, q);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->tuples.empty()) << q.ToSql();
  }
}

// ---------------------------------------------------------------------------
// Golden pins: all-valid workloads are byte-identical to the pre-null seed.
// The constants below were captured from the engine at the commit preceding
// this feature; any drift means the fast path is no longer bit-exact.
// ---------------------------------------------------------------------------

TEST(GoldenTest, DefaultDatabasesFingerprintAsSeed) {
  GeneratedDb imdb = MakeImdbDatabase(ImdbConfig{});
  GeneratedDb acad = MakeAcademicDatabase(AcademicConfig{});
  EXPECT_EQ(FactTableFingerprint(*imdb.db), 10100358221814532543ull);
  EXPECT_EQ(FactTableFingerprint(*acad.db), 11190426527198386713ull);
  ImdbConfig small;
  small.seed = 99;
  small.num_companies = 5;
  small.num_actors = 8;
  small.num_movies = 10;
  small.num_roles = 20;
  EXPECT_EQ(FactTableFingerprint(*MakeImdbDatabase(small).db),
            839548928046072185ull);
  // No default-config column carries a bitmap.
  for (const Database* db : {imdb.db.get(), acad.db.get()}) {
    for (size_t t = 0; t < db->num_tables(); ++t) {
      for (size_t c = 0; c < db->table(t).num_columns(); ++c) {
        EXPECT_FALSE(db->table(t).column(c).has_nulls());
      }
    }
  }
}

TEST(GoldenTest, NonZeroNullProbChangesFingerprint) {
  ImdbConfig cfg;
  cfg.null_prob = 0.2;
  EXPECT_NE(FactTableFingerprint(*MakeImdbDatabase(cfg).db),
            10100358221814532543ull);
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t FnvStr(uint64_t h, const std::string& s) {
  return Fnv1a(h, s.data(), s.size());
}

uint64_t FnvWord(uint64_t h, uint64_t w) { return Fnv1a(h, &w, sizeof(w)); }

// FNV-1a over the string pool in id order (length, then bytes, per string).
// FactTableFingerprint hashes string contents, so it cannot see the order
// in which ingest interned them; this can. Database::Append's column-by-
// column flush decides that order; the pinned values predate Append.
uint64_t InternOrderFingerprint(const Database& db) {
  uint64_t h = 0xcbf29ce484222325ull;
  const StringPool& pool = db.string_pool();
  for (StringId i = 0; i < pool.size(); ++i) {
    h = FnvWord(h, pool.Get(i).size());
    h = FnvStr(h, pool.Get(i));
  }
  return h;
}

TEST(GoldenTest, DefaultDatabasesInternStringsAsSeed) {
  GeneratedDb imdb = MakeImdbDatabase(ImdbConfig{});
  GeneratedDb acad = MakeAcademicDatabase(AcademicConfig{});
  EXPECT_EQ(InternOrderFingerprint(*imdb.db), 13029349240397745905ull);
  EXPECT_EQ(InternOrderFingerprint(*acad.db), 1501532677026326132ull);
}

// FNV-1a over every tuple (rendered text, in result order) and lineage of
// every query in the log — one number pinning the full observable output of
// a (database, log, capture mode) triple.
uint64_t EvalLogFingerprint(const Database& db, const std::vector<Query>& log,
                            ProvenanceCapture capture, ThreadPool* pool) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Query& q : log) {
    EvalOptions opts;
    opts.capture = capture;
    if (pool != nullptr) {
      opts.pool = pool;
      opts.morsel_rows = 3;        // tiny morsels: force real parallel merges
      opts.min_parallel_rows = 1;
    }
    auto res = Evaluate(db, q, opts);
    LSHAP_CHECK(res.ok());
    h = FnvStr(h, q.id);
    h = FnvWord(h, res->tuples.size());
    for (size_t i = 0; i < res->tuples.size(); ++i) {
      h = FnvStr(h, OutputTupleToString(res->tuples[i]));
      if (capture != ProvenanceCapture::kNone) {
        const auto& lin = res->LineageOf(i);
        h = FnvWord(h, lin.size());
        for (FactId f : lin) h = FnvWord(h, f);
      }
    }
  }
  return h;
}

TEST(GoldenTest, EvalLogFingerprintsMatchSeedAtEveryThreadCount) {
  GeneratedDb data = MakeImdbDatabase(ImdbConfig{});
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 4242);
  const std::vector<Query> log = gen.GenerateLog(30, "nullpin");
  ASSERT_EQ(log.size(), 85u);  // generator RNG stream unchanged by null_prob

  const struct {
    ProvenanceCapture capture;
    uint64_t want;
  } kPins[] = {
      {ProvenanceCapture::kNone, 17452578491546353154ull},
      {ProvenanceCapture::kLineageOnly, 2549908928594604730ull},
      {ProvenanceCapture::kFull, 2549908928594604730ull},
  };
  for (const auto& pin : kPins) {
    EXPECT_EQ(EvalLogFingerprint(*data.db, log, pin.capture, nullptr),
              pin.want)
        << "serial capture=" << static_cast<int>(pin.capture);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ThreadPool pool(threads);
      EXPECT_EQ(EvalLogFingerprint(*data.db, log, pin.capture, &pool),
                pin.want)
          << "threads=" << threads
          << " capture=" << static_cast<int>(pin.capture);
    }
  }
}

// ---------------------------------------------------------------------------
// Forced bitmaps: a validity bitmap on every column changes no join answer.
// ---------------------------------------------------------------------------

// Clones `src` and appends one all-NULL row to every table: the same cells,
// but every column now carries a validity bitmap, so scans pay the valid(r)
// branch and joins the null-key checks.
std::unique_ptr<Database> CloneWithNullRowPerTable(const Database& src) {
  auto db = std::make_unique<Database>(src.name());
  for (size_t t = 0; t < src.num_tables(); ++t) {
    const Table& table = src.table(t);
    LSHAP_CHECK(db->AddTable(table.schema()).ok());
    RowBatch batch = db->BatchFor(table.schema().table_name());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      batch.Begin();
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const Value v = table.GetValue(r, c);
        if (v.is_int()) {
          batch.Int(v.AsInt());
        } else if (v.is_string()) {
          batch.Str(v.AsString());
        } else {
          batch.Real(v.AsDouble());
        }
      }
      batch.End();
    }
    batch.Begin();
    for (size_t c = 0; c < table.num_columns(); ++c) batch.Null();
    batch.End();
    db->Append(batch);
  }
  db->FreezeStringOrder();
  return db;
}

TEST(ForcedBitmapTest, JoinLogMatchesAllValidDatabase) {
  ImdbConfig cfg;
  cfg.seed = 7;
  cfg.num_companies = 20;
  cfg.num_actors = 120;
  cfg.num_movies = 220;
  cfg.num_roles = 700;
  GeneratedDb base = MakeImdbDatabase(cfg);
  const std::unique_ptr<Database> forced = CloneWithNullRowPerTable(*base.db);
  for (size_t t = 0; t < forced->num_tables(); ++t) {
    for (size_t c = 0; c < forced->table(t).num_columns(); ++c) {
      EXPECT_TRUE(forced->table(t).column(c).has_nulls())
          << forced->table(t).schema().table_name() << " column " << c;
    }
  }

  // Joins of 2-4 tables only. A NULL key joins nothing, but an unfiltered
  // single-table scan would also return the appended row.
  QueryGenConfig gen_cfg;
  gen_cfg.min_tables = 2;
  gen_cfg.max_tables = 4;
  QueryGenerator gen(base.db.get(), base.graph, gen_cfg, 4242);
  const std::vector<Query> log = gen.GenerateLog(5, "forced");
  ASSERT_EQ(log.size(), 20u);

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EvalOptions opts;
    if (p != nullptr) {
      // Tiny morsels force real parallel merges on this small database.
      opts.WithPool(p).WithMorselRows(3).WithMinParallelRows(1);
    }
    for (const Query& q : log) {
      SCOPED_TRACE(q.ToSql() + (p != nullptr ? " [4 threads]" : " [serial]"));
      auto want = Evaluate(*base.db, q, opts);
      auto got = Evaluate(*forced, q, opts);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->tuples, want->tuples);
      for (size_t i = 0; i < want->tuples.size(); ++i) {
        EXPECT_EQ(got->LineageOf(i).size(), want->LineageOf(i).size());
      }
    }
  }
}

}  // namespace
}  // namespace lshap
