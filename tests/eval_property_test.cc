// Property tests: the columnar hash-join evaluator must agree exactly —
// tuples AND provenance — with a naive row-at-a-time cartesian-product
// reference evaluator, on random queries over small random databases, under
// every provenance-capture mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "datasets/academic.h"
#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "query/generator.h"

namespace lshap {
namespace {

// Reference evaluation of one SPJ block by full cartesian enumeration,
// reading values row-at-a-time through the Value boundary (GetValue), i.e.
// deliberately NOT through the columnar fast paths under test.
void NaiveBlock(const Database& db, const SpjBlock& block,
                std::map<OutputTuple, std::vector<Clause>>& out) {
  std::vector<const Table*> tables;
  for (const auto& name : block.tables) {
    tables.push_back(db.FindTable(name).value());
  }
  std::map<std::string, size_t> pos;
  for (size_t i = 0; i < block.tables.size(); ++i) pos[block.tables[i]] = i;

  std::vector<size_t> idx(tables.size(), 0);
  for (;;) {
    // Check selections.
    bool pass = true;
    for (const auto& sel : block.selections) {
      const size_t t = pos.at(sel.column.table);
      const size_t c =
          tables[t]->schema().ColumnIndex(sel.column.column).value();
      if (!MatchesPredicate(tables[t]->GetValue(idx[t], c), sel.op,
                            sel.literal)) {
        pass = false;
        break;
      }
    }
    if (pass) {
      for (const auto& join : block.joins) {
        const size_t lt = pos.at(join.left.table);
        const size_t lc =
            tables[lt]->schema().ColumnIndex(join.left.column).value();
        const size_t rt = pos.at(join.right.table);
        const size_t rc =
            tables[rt]->schema().ColumnIndex(join.right.column).value();
        const Value lv = tables[lt]->GetValue(idx[lt], lc);
        const Value rv = tables[rt]->GetValue(idx[rt], rc);
        // SQL join semantics: a NULL key matches nothing, including another
        // NULL — variant equality says Null() == Null(), so nulls must be
        // rejected explicitly. (NaN needs no special case here: variant
        // equality already says NaN != NaN, agreeing with the engine's NaN
        // key exclusion.)
        if (lv.is_null() || rv.is_null() || lv != rv) {
          pass = false;
          break;
        }
      }
    }
    if (pass) {
      OutputTuple tuple;
      for (const auto& proj : block.projections) {
        const size_t t = pos.at(proj.table);
        const size_t c =
            tables[t]->schema().ColumnIndex(proj.column).value();
        tuple.push_back(tables[t]->GetValue(idx[t], c));
      }
      Clause clause;
      for (size_t t = 0; t < tables.size(); ++t) {
        clause.push_back(tables[t]->fact_id(idx[t]));
      }
      std::sort(clause.begin(), clause.end());
      out[tuple].push_back(std::move(clause));
    }
    // Odometer increment.
    size_t t = 0;
    for (; t < tables.size(); ++t) {
      if (++idx[t] < tables[t]->num_rows()) break;
      idx[t] = 0;
    }
    if (t == tables.size()) break;
  }
}

std::map<OutputTuple, std::vector<Clause>> NaiveQuery(const Database& db,
                                                      const Query& q) {
  std::map<OutputTuple, std::vector<Clause>> want;
  for (const auto& block : q.blocks) NaiveBlock(db, block, want);
  return want;
}

// A small database so that cartesian products stay tractable.
GeneratedDb SmallImdb() {
  ImdbConfig cfg;
  cfg.seed = 99;
  cfg.num_companies = 5;
  cfg.num_actors = 8;
  cfg.num_movies = 10;
  cfg.num_roles = 20;
  return MakeImdbDatabase(cfg);
}

// A small Academic database: its join keys are integer columns, covering the
// int key-word path the IMDB string joins do not.
GeneratedDb SmallAcademic() {
  AcademicConfig cfg;
  cfg.seed = 42;
  cfg.num_organizations = 4;
  cfg.num_authors = 8;
  cfg.num_publications = 10;
  cfg.num_writes = 16;
  cfg.num_conferences = 5;
  cfg.num_domains = 3;
  cfg.num_domain_conference = 6;
  return MakeAcademicDatabase(cfg);
}

// The shared pools the parallel differential checks dispatch on. Morsel
// dispatch must produce identical results under any worker count, so every
// differential case runs at 1, 2, and 8 threads.
std::vector<ThreadPool*>& SharedPools() {
  static std::vector<ThreadPool*>* pools = [] {
    auto* p = new std::vector<ThreadPool*>();
    for (size_t threads : {1u, 2u, 8u}) p->push_back(new ThreadPool(threads));
    return p;
  }();
  return *pools;
}

// Asserts the morsel-parallel evaluator is byte-identical to the serial
// result: same tuples in the same order, same clause order, same lineages.
// Tiny morsels force multi-morsel merges even on these small databases.
void CheckParallelMatchesSerial(const Database& db, const Query& q,
                                ProvenanceCapture capture,
                                const EvalResult& serial) {
  for (ThreadPool* pool : SharedPools()) {
    EvalOptions opts;
    opts.capture = capture;
    opts.pool = pool;
    opts.morsel_rows = 3;
    opts.min_parallel_rows = 1;
    auto got = Evaluate(db, q, opts);
    ASSERT_TRUE(got.ok()) << q.ToSql();
    const std::string ctx = q.ToSql() + " threads=" +
                            std::to_string(pool->num_threads()) +
                            " capture=" + std::to_string(static_cast<int>(capture));
    ASSERT_EQ(got->tuples, serial.tuples) << ctx;
    EXPECT_EQ(got->index, serial.index) << ctx;
    EXPECT_EQ(got->lineages, serial.lineages) << ctx;
    if (capture == ProvenanceCapture::kFull) {
      ASSERT_EQ(got->provenance.size(), serial.provenance.size()) << ctx;
      for (size_t i = 0; i < serial.provenance.size(); ++i) {
        EXPECT_EQ(got->provenance[i].clauses(), serial.provenance[i].clauses())
            << ctx << " tuple " << i;
      }
    }
  }
}

// Asserts the string-materializing selection path (use_string_ranks=false)
// produces exactly the result of the rank-compiled default. On a frozen
// pool the two take genuinely different code paths for ordered/prefix
// string predicates — text comparison per cell vs. one rank-interval test —
// so this is the id-space predicates' differential oracle.
void CheckTextOracleMatches(const Database& db, const Query& q,
                            ProvenanceCapture capture,
                            const EvalResult& ranked) {
  EvalOptions opts;
  opts.capture = capture;
  opts.use_string_ranks = false;
  auto text = Evaluate(db, q, opts);
  ASSERT_TRUE(text.ok()) << q.ToSql();
  const std::string ctx = q.ToSql() + " [text oracle] capture=" +
                          std::to_string(static_cast<int>(capture));
  ASSERT_EQ(text->tuples, ranked.tuples) << ctx;
  EXPECT_EQ(text->index, ranked.index) << ctx;
  EXPECT_EQ(text->lineages, ranked.lineages) << ctx;
  if (capture == ProvenanceCapture::kFull) {
    ASSERT_EQ(text->provenance.size(), ranked.provenance.size()) << ctx;
    for (size_t i = 0; i < ranked.provenance.size(); ++i) {
      EXPECT_EQ(text->provenance[i].clauses(), ranked.provenance[i].clauses())
          << ctx << " tuple " << i;
    }
  }
}

// Differential check of one query against the reference under all three
// capture modes: identical tuple sets always; identical lineage sets under
// kLineageOnly and kFull; identical DNFs under kFull. Each case then runs
// through the parallel evaluator at every pool size against the serial
// result, and through the text-path oracle against the rank-compiled
// serial result.
void CheckAgainstReference(const Database& db, const Query& q) {
  const std::map<OutputTuple, std::vector<Clause>> want = NaiveQuery(db, q);

  for (const ProvenanceCapture capture :
       {ProvenanceCapture::kNone, ProvenanceCapture::kLineageOnly,
        ProvenanceCapture::kFull}) {
    auto got = Evaluate(db, q, capture);
    ASSERT_TRUE(got.ok()) << q.ToSql();
    ASSERT_EQ(got->tuples.size(), want.size())
        << q.ToSql() << " capture=" << static_cast<int>(capture);
    for (const auto& [tuple, clauses] : want) {
      auto it = got->index.find(tuple);
      ASSERT_NE(it, got->index.end())
          << q.ToSql() << " missing " << OutputTupleToString(tuple);
      const Dnf expected(clauses);
      if (capture == ProvenanceCapture::kFull) {
        EXPECT_EQ(got->ProvenanceOf(it->second).clauses(), expected.clauses())
            << q.ToSql() << " tuple " << OutputTupleToString(tuple);
      }
      if (capture != ProvenanceCapture::kNone) {
        EXPECT_EQ(got->LineageOf(it->second), expected.Variables())
            << q.ToSql() << " tuple " << OutputTupleToString(tuple);
      }
    }
    CheckParallelMatchesSerial(db, q, capture, *got);
    CheckTextOracleMatches(db, q, capture, *got);
  }
}

// Counts selections in `q` whose op is an ordered string comparison or a
// prefix test on a string column — the predicate classes the rank sidecar
// compiles to id-space interval tests.
size_t CountOrderedStringSelections(const Query& q) {
  size_t n = 0;
  for (const auto& block : q.blocks) {
    for (const auto& sel : block.selections) {
      if (!sel.literal.is_string()) continue;
      if (sel.op == CompareOp::kLt || sel.op == CompareOp::kLe ||
          sel.op == CompareOp::kGt || sel.op == CompareOp::kGe ||
          sel.op == CompareOp::kStartsWith) {
        ++n;
      }
    }
  }
  return n;
}

TEST(EvalPropertyTest, MatchesNaiveEvaluatorOnRandomQueries) {
  GeneratedDb data = SmallImdb();
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 1234);

  size_t nonempty = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Query q =
        gen.Generate(std::string("p").append(std::to_string(trial)));
    const auto want = NaiveQuery(*data.db, q);
    if (!want.empty()) ++nonempty;
    CheckAgainstReference(*data.db, q);
  }
  // The generator must produce a healthy share of non-empty queries for
  // this test to mean anything.
  EXPECT_GT(nonempty, 20u);
}

TEST(EvalPropertyTest, MatchesNaiveEvaluatorOnIntJoins) {
  GeneratedDb data = SmallAcademic();
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 5678);

  size_t nonempty = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Query q =
        gen.Generate(std::string("a").append(std::to_string(trial)));
    if (!NaiveQuery(*data.db, q).empty()) ++nonempty;
    CheckAgainstReference(*data.db, q);
  }
  EXPECT_GT(nonempty, 10u);
}

// Opt-in generator knobs flood the log with ordered (<, <=, >, >=) and
// prefix string selections, which compile to rank-interval tests over the
// frozen pools — differentially verified against the naive text reference,
// the text-path oracle, and the parallel evaluator at 1/2/8 threads under
// every capture mode.
TEST(EvalPropertyTest, MatchesNaiveEvaluatorOnOrderedStringPredicates) {
  GeneratedDb data = SmallImdb();
  ASSERT_TRUE(data.db->string_pool().OrderIndexFresh());
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  gen_cfg.string_order_prob = 0.45;
  gen_cfg.string_prefix_prob = 0.35;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 20240);

  size_t ordered = 0;
  size_t nonempty = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Query q =
        gen.Generate(std::string("o").append(std::to_string(trial)));
    ordered += CountOrderedStringSelections(q);
    if (!NaiveQuery(*data.db, q).empty()) ++nonempty;
    CheckAgainstReference(*data.db, q);
  }
  // The knobs must actually produce the predicate classes under test, and a
  // healthy share of non-empty results.
  EXPECT_GT(ordered, 25u);
  EXPECT_GT(nonempty, 10u);
}

TEST(EvalPropertyTest, MatchesNaiveEvaluatorOnOrderedAcademicPredicates) {
  GeneratedDb data = SmallAcademic();
  ASSERT_TRUE(data.db->string_pool().OrderIndexFresh());
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  gen_cfg.string_order_prob = 0.5;
  gen_cfg.string_prefix_prob = 0.3;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 20241);

  size_t ordered = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Query q = gen.Generate("oa" + std::to_string(trial));
    ordered += CountOrderedStringSelections(q);
    CheckAgainstReference(*data.db, q);
  }
  EXPECT_GT(ordered, 10u);
}

// Interning a new string after the dataset froze its pool makes the order
// sidecar stale: the evaluator must fall back to text comparisons (the
// rank map no longer covers every id) and still match the reference.
TEST(EvalPropertyTest, StaleOrderSidecarFallsBackToTextPath) {
  GeneratedDb data = SmallImdb();
  ASSERT_TRUE(data.db->string_pool().OrderIndexFresh());
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 2;
  gen_cfg.string_order_prob = 0.6;
  gen_cfg.string_prefix_prob = 0.3;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 20242);
  std::vector<Query> queries;
  for (int trial = 0; trial < 10; ++trial) {
    queries.push_back(gen.Generate("s" + std::to_string(trial)));
    CheckAgainstReference(*data.db, queries.back());
  }

  // A new company name (a string the pool has never seen, sorting past the
  // frozen range) invalidates the sidecar...
  ASSERT_TRUE(data.db
                  ->Insert("companies", {Value("zzz unfrozen studio"),
                                         Value("Nowhere")})
                  .ok());
  ASSERT_FALSE(data.db->string_pool().OrderIndexFresh());
  // ...and every query still matches the reference through the fallback.
  for (const Query& q : queries) CheckAgainstReference(*data.db, q);

  // Re-freezing restores the rank path over the grown dictionary.
  data.db->FreezeStringOrder();
  ASSERT_TRUE(data.db->string_pool().OrderIndexFresh());
  for (const Query& q : queries) CheckAgainstReference(*data.db, q);
}

// Databases generated with null cells (nullable non-key columns) plus a
// generator emitting NULL-literal selections: the columnar three-valued
// paths — null-filtering scans, kNever NULL-literal compilation, null-masked
// DISTINCT encoding — must agree with the naive reference (which goes
// through MatchesPredicate / Value equality) under every capture mode,
// thread count, and the text-path oracle.
TEST(EvalPropertyTest, MatchesNaiveEvaluatorWithNullCells) {
  ImdbConfig cfg;
  cfg.seed = 99;
  cfg.num_companies = 5;
  cfg.num_actors = 8;
  cfg.num_movies = 10;
  cfg.num_roles = 20;
  cfg.null_prob = 0.3;
  GeneratedDb data = MakeImdbDatabase(cfg);
  // The knob must actually produce nulls for this test to mean anything.
  size_t nulls = 0;
  for (size_t t = 0; t < data.db->num_tables(); ++t) {
    for (size_t c = 0; c < data.db->table(t).num_columns(); ++c) {
      nulls += data.db->table(t).column(c).null_count();
    }
  }
  ASSERT_GT(nulls, 0u);

  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  gen_cfg.null_prob = 0.15;  // NULL-literal selections in the mix
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 909);
  size_t nonempty = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Query q =
        gen.Generate(std::string("n").append(std::to_string(trial)));
    if (!NaiveQuery(*data.db, q).empty()) ++nonempty;
    CheckAgainstReference(*data.db, q);
  }
  EXPECT_GT(nonempty, 10u);
}

TEST(EvalPropertyTest, MatchesNaiveEvaluatorWithNullIntCells) {
  AcademicConfig cfg;
  cfg.seed = 42;
  cfg.num_organizations = 4;
  cfg.num_authors = 8;
  cfg.num_publications = 10;
  cfg.num_writes = 16;
  cfg.num_conferences = 5;
  cfg.num_domains = 3;
  cfg.num_domain_conference = 6;
  cfg.null_prob = 0.35;
  GeneratedDb data = MakeAcademicDatabase(cfg);

  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  gen_cfg.null_prob = 0.1;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 910);
  for (int trial = 0; trial < 30; ++trial) {
    CheckAgainstReference(*data.db,
                          gen.Generate("na" + std::to_string(trial)));
  }
}

// Joins over columns that actually hold NULL (and NaN) keys. The generated
// datasets never null their FK columns, so this hand-built schema is what
// exercises the build-side filtering and probe-side skip in the hash join —
// differentially against the naive reference, which rejects null keys
// explicitly and rejects NaN via Value's NaN != NaN.
TEST(EvalPropertyTest, NullAndNanJoinKeysMatchNaiveEvaluator) {
  Database db("nulljoin");
  ASSERT_TRUE(db.AddTable(Schema("l", {{"k", ColumnType::kInt},
                                       {"d", ColumnType::kDouble},
                                       {"tag", ColumnType::kString}}))
                  .ok());
  ASSERT_TRUE(db.AddTable(Schema("r", {{"k", ColumnType::kInt},
                                       {"d", ColumnType::kDouble},
                                       {"name", ColumnType::kString}}))
                  .ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RowBatch l = db.BatchFor("l");
  l.Begin().Int(1).Real(1.5).Str("a").End();
  l.Begin().Null().Real(nan).Str("b").End();   // null int key, NaN double
  l.Begin().Int(0).Real(0.0).Str("c").End();   // 0: the null placeholder
  l.Begin().Int(2).Null().Str("d").End();
  db.Append(l);
  RowBatch r = db.BatchFor("r");
  r.Begin().Int(1).Real(1.5).Str("x").End();
  r.Begin().Null().Real(nan).Str("y").End();   // must match NOTHING
  r.Begin().Int(0).Real(-0.0).Str("z").End();  // -0.0 joins 0.0
  r.Begin().Int(2).Null().Str("w").End();
  db.Append(r);
  db.FreezeStringOrder();

  const struct {
    const char* key;
    std::vector<std::string> want;
  } kCases[] = {
      // On k: b's null int key joins nothing (even though r.b is also
      // null), c's key is the literal 0 a null cell stores as placeholder
      // and must join normally, and d's key is a perfectly valid 2 — its
      // null lives in another column and must not disqualify the row.
      {"k", {"(a, x)", "(c, z)", "(d, w)"}},
      // On d: b's NaN key and d's null key both join nothing; 0.0 == -0.0.
      {"d", {"(a, x)", "(c, z)"}},
  };
  for (const auto& kase : kCases) {
    SpjBlock b;
    b.tables = {"l", "r"};
    b.joins.push_back({{"l", kase.key}, {"r", kase.key}});
    b.projections = {{"l", "tag"}, {"r", "name"}};
    Query q;
    q.id = std::string("nulljoin_") + kase.key;
    q.blocks.push_back(b);
    CheckAgainstReference(db, q);
    // Sanity on the semantics themselves, not just naive-agreement.
    auto res = Evaluate(db, q);
    ASSERT_TRUE(res.ok());
    std::vector<std::string> got;
    for (const auto& t : res->tuples) got.push_back(OutputTupleToString(t));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, kase.want) << q.ToSql();
  }
}

TEST(EvalPropertyTest, DisconnectedQueryCrossProductMatches) {
  // No join predicate between the two tables: the evaluator takes the
  // cross-product path (with its capped, saturating reservation). Checked
  // against the naive reference and across every pool size like the rest.
  GeneratedDb data = SmallImdb();
  SpjBlock b;
  b.tables = {"companies", "actors"};
  b.projections = {{"companies", "name"}, {"actors", "name"}};
  Query q;
  q.id = "cross";
  q.blocks.push_back(b);
  CheckAgainstReference(*data.db, q);

  // Same with a selection on each side, so the cross product runs over
  // filtered survivor lists.
  SpjBlock bs = b;
  bs.selections.push_back(
      {{"actors", "age"}, CompareOp::kGt, Value(int64_t{40})});
  Query qs;
  qs.id = "cross_sel";
  qs.blocks.push_back(bs);
  CheckAgainstReference(*data.db, qs);
}

TEST(EvalPropertyTest, LineageEqualsProvenanceVariables) {
  GeneratedDb data = SmallImdb();
  QueryGenerator gen(data.db.get(), data.graph, {}, 77);
  for (int trial = 0; trial < 20; ++trial) {
    const Query q = gen.Generate("l" + std::to_string(trial));
    auto result = Evaluate(*data.db, q);
    ASSERT_TRUE(result.ok());
    for (size_t i = 0; i < result->tuples.size(); ++i) {
      EXPECT_EQ(result->LineageOf(i), result->ProvenanceOf(i).Variables());
    }
  }
}

TEST(EvalPropertyTest, EveryClauseJoinsOneFactPerTable) {
  GeneratedDb data = SmallImdb();
  QueryGenConfig cfg;
  cfg.max_tables = 3;
  QueryGenerator gen(data.db.get(), data.graph, cfg, 31);
  for (int trial = 0; trial < 20; ++trial) {
    const Query q =
        gen.Generate(std::string("c").append(std::to_string(trial)));
    if (q.blocks.size() != 1) continue;
    auto result = Evaluate(*data.db, q);
    ASSERT_TRUE(result.ok());
    const size_t expected = q.blocks[0].tables.size();
    for (const auto& prov : result->provenance) {
      for (const auto& clause : prov.clauses()) {
        EXPECT_EQ(clause.size(), expected) << q.ToSql();
      }
    }
  }
}

// Instrumentation must be observational only: attaching a MetricsRegistry
// may not change a single output byte, at any thread count, and the
// deterministic eval.* counters must agree across thread counts (the
// metric-resolution discipline in DESIGN.md Â§9 — counts are per scan /
// per join step / per block, never per worker).
TEST(EvalPropertyTest, MetricsAreObservationalOnly) {
  GeneratedDb data = SmallImdb();
  QueryGenConfig gen_cfg;
  gen_cfg.max_tables = 3;
  gen_cfg.union_prob = 0.3;
  QueryGenerator gen(data.db.get(), data.graph, gen_cfg, 555);

  const char* const kDeterministic[] = {
      "eval.queries",          "eval.blocks",
      "eval.rows_scanned",     "eval.sel_rank_path",
      "eval.sel_text_fallback", "eval.morsels",
      "eval.join.index_builds", "eval.join.cross_products",
      "eval.join.rows_probed", "eval.join.probe_batches",
      "eval.join.output_rows", "eval.output_tuples",
  };

  for (int trial = 0; trial < 20; ++trial) {
    const Query q = gen.Generate("m" + std::to_string(trial));
    const auto plain = Evaluate(*data.db, q);
    ASSERT_TRUE(plain.ok()) << q.ToSql();

    // Serial, instrumented: byte-identical to the uninstrumented run.
    MetricsRegistry serial_registry;
    auto serial = Evaluate(*data.db, q,
                           EvalOptions().WithMetrics(&serial_registry));
    ASSERT_TRUE(serial.ok()) << q.ToSql();
    ASSERT_EQ(serial->tuples, plain->tuples) << q.ToSql();
    EXPECT_EQ(serial->index, plain->index) << q.ToSql();
    EXPECT_EQ(serial->lineages, plain->lineages) << q.ToSql();
    ASSERT_EQ(serial->provenance.size(), plain->provenance.size());
    for (size_t i = 0; i < plain->provenance.size(); ++i) {
      EXPECT_EQ(serial->provenance[i].clauses(),
                plain->provenance[i].clauses())
          << q.ToSql() << " tuple " << i;
    }

    // Parallel at 1, 2 and 8 threads, instrumented: still byte-identical,
    // and the deterministic counters agree across all three pools.
    std::vector<uint64_t> baseline;
    for (ThreadPool* pool : SharedPools()) {
      MetricsRegistry registry;
      auto got = Evaluate(*data.db, q,
                          EvalOptions()
                              .WithPool(pool)
                              .WithMorselRows(3)
                              .WithMinParallelRows(1)
                              .WithMetrics(&registry));
      ASSERT_TRUE(got.ok()) << q.ToSql();
      const std::string ctx =
          q.ToSql() + " threads=" + std::to_string(pool->num_threads());
      ASSERT_EQ(got->tuples, plain->tuples) << ctx;
      EXPECT_EQ(got->index, plain->index) << ctx;
      EXPECT_EQ(got->lineages, plain->lineages) << ctx;
      ASSERT_EQ(got->provenance.size(), plain->provenance.size()) << ctx;
      for (size_t i = 0; i < plain->provenance.size(); ++i) {
        EXPECT_EQ(got->provenance[i].clauses(),
                  plain->provenance[i].clauses())
            << ctx << " tuple " << i;
      }

      std::vector<uint64_t> counts;
      for (const char* name : kDeterministic) {
        counts.push_back(registry.CounterValue(name));
      }
      if (baseline.empty()) {
        baseline = counts;
        EXPECT_GT(registry.CounterValue("eval.queries"), 0u) << ctx;
      } else {
        for (size_t i = 0; i < counts.size(); ++i) {
          EXPECT_EQ(counts[i], baseline[i])
              << ctx << " counter " << kDeterministic[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace lshap
