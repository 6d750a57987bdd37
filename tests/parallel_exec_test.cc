// Differential coverage of the data-parallel row path: partitioned
// IsCertainRows / Session::CertainAnswers must be BYTE-IDENTICAL to the
// sequential execution — rows, order, and the answer-path stats — for
// every worker count and every chunk-threshold boundary. Runs under the
// `concurrency` ctest label, so the CI sanitizer matrix (including the
// CQA_THREADS=4 configuration) executes it under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cq/corpus.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "plan/query_plan.h"
#include "serve/session.h"
#include "solve_helpers.h"
#include "util/interner.h"
#include "util/rw_gate.h"
#include "util/thread_pool.h"

namespace cqa {
namespace {

using Rows = std::vector<std::vector<SymbolId>>;

Rows Materialize(const Result<std::shared_ptr<const RowBlock>>& served) {
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  return served.ok() ? (*served)->Rows(0, (*served)->size()) : Rows{};
}

/// The answer-path slice of Session::Stats — the part the determinism
/// contract covers. Scheduling telemetry (parallel_batches/chunks, gate
/// counters) legally differs across pool sizes and is excluded.
struct AnswerStats {
  uint64_t cached, incremental, full, reused, decided;
  bool operator==(const AnswerStats& o) const {
    return cached == o.cached && incremental == o.incremental &&
           full == o.full && reused == o.reused && decided == o.decided;
  }
};

AnswerStats AnswerPath(const Session::Stats& s) {
  return {s.answers_cached, s.answers_incremental, s.answers_full,
          s.rows_reused, s.rows_decided};
}

/// `n` R-blocks R(a_i | b_i) joined to S(b_i | c_i); every seventh
/// block uncertain, so ~1/7 of the candidates are possible but not
/// certain and chunk boundaries cut through both verdicts.
Database JoinDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    std::string c = "c" + std::to_string(i);
    EXPECT_TRUE(db.AddFact(Fact::Make("R", {a, b}, 1)).ok());
    if (i % 7 == 0) {
      EXPECT_TRUE(
          db.AddFact(Fact::Make("R", {a, "dead" + std::to_string(i)}, 1))
              .ok());
    }
    EXPECT_TRUE(db.AddFact(Fact::Make("S", {b, c}, 1)).ok());
  }
  return db;
}

Query JoinQ() { return MustParseQuery("R(x | y), S(y | z)"); }

/// Serves (q, fv) through a session with the given pool size and
/// partition threshold, returning the materialized rows.
Rows ServeOnce(const Database& db, const Query& q,
               const std::vector<SymbolId>& fv, int threads,
               size_t threshold) {
  Session::Options options;
  options.num_threads = threads;
  options.parallel_row_threshold = threshold;
  Session session(db, options);
  return Materialize(testutil::SessionCertainAnswers(session, q, fv));
}

TEST(ParallelRows, WorkerCountsAgreeOnCorpus) {
  // The matcher_property-style corpus sweep: random acyclic queries
  // over random block databases, decided sequentially and with 2 and 7
  // workers at an aggressive threshold (1 = always partition).
  std::vector<SymbolId> fv;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    QueryGenOptions qopts;
    qopts.seed = seed * 13 + 1;
    qopts.num_atoms = 2 + static_cast<int>(seed % 3);
    Query q = RandomAcyclicQuery(qopts);
    VarSet vars = q.Vars();
    if (vars.empty()) continue;
    fv.assign(1, *vars.begin());
    BlockDbGenOptions bopts;
    bopts.seed = seed * 17 + 3;
    bopts.blocks_per_relation = 12;
    bopts.max_block_size = 3;
    bopts.domain_size = 6;
    Database db = RandomBlockDatabase(q, bopts);

    Rows sequential = ServeOnce(db, q, fv, 1, 0);
    for (int threads : {2, 7}) {
      Rows parallel = ServeOnce(db, q, fv, threads, 1);
      ASSERT_EQ(sequential, parallel)
          << "seed " << seed << " threads " << threads
          << "\nquery: " << q.ToString();
    }
  }
}

TEST(ParallelRows, CorpusQueriesAgreeAtDefaultThreads) {
  // Named corpus queries under the DEFAULT pool size (CQA_THREADS in
  // the CI sanitizer matrix makes this a >=4-worker configuration).
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    VarSet vars = q.Vars();
    if (vars.empty()) continue;
    std::vector<SymbolId> fv = {*vars.begin()};
    BlockDbGenOptions bopts;
    bopts.seed = 42;
    bopts.blocks_per_relation = 8;
    bopts.max_block_size = 2;
    bopts.domain_size = 5;
    Database db = RandomBlockDatabase(q, bopts);
    Rows sequential = ServeOnce(db, q, fv, 1, 0);
    Rows parallel = ServeOnce(db, q, fv, 0, 1);  // 0 = default threads
    ASSERT_EQ(sequential, parallel) << name;
  }
}

TEST(ParallelRows, ThresholdBoundariesAgree) {
  // Chunk-threshold boundary sweep: batch sizes right at the partition
  // decision (0 = never partition, 1 = always, N-1 / N / N+1 straddle
  // the candidate count).
  const int n = 300;  // candidate rows == n (one per R block)
  Database db = JoinDb(n);
  Query q = JoinQ();
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Rows baseline = ServeOnce(db, q, fv, 1, 0);
  ASSERT_EQ(baseline.size(), static_cast<size_t>(n - (n + 6) / 7));
  for (size_t threshold :
       {size_t{0}, size_t{1}, size_t{n - 1}, size_t{n}, size_t{n + 1}}) {
    for (int threads : {2, 7}) {
      ASSERT_EQ(baseline, ServeOnce(db, q, fv, threads, threshold))
          << "threshold " << threshold << " threads " << threads;
    }
  }
}

TEST(ParallelRows, SpanPartitionMatchesWholeBatch) {
  // QueryPlan::IsCertainRowSpan directly: any disjoint span cover of
  // the batch reassembles the exact IsCertainRows vector.
  Database db = JoinDb(97);
  Query q = JoinQ();
  std::vector<SymbolId> fv = {InternSymbol("x")};
  auto plan = QueryPlan::Compile(q, fv).value();
  EvalContext ctx(db);
  Rows rows = CollectProjectionsSorted(ctx.fact_index(), q, Valuation(), fv);
  ASSERT_GT(rows.size(), 10u);
  std::vector<char> whole = plan->IsCertainRows(ctx, rows).value();
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, rows.size()}) {
    std::vector<char> assembled(rows.size(), 0);
    for (size_t begin = 0; begin < rows.size(); begin += chunk) {
      size_t end = std::min(rows.size(), begin + chunk);
      ASSERT_TRUE(
          plan->IsCertainRowSpan(ctx, rows, begin, end, &assembled).ok());
    }
    ASSERT_EQ(whole, assembled) << "chunk " << chunk;
  }
}

TEST(ParallelRows, DirtyRowReDecideAgreesAcrossWorkers) {
  // The post-delta incremental path: identical delta traffic served by
  // a sequential and a partitioned session must produce identical rows
  // AND identical answer-path stats at every step (the partitioned
  // session re-decides the same dirty rows, just on more workers).
  const int n = 280;
  Query q = JoinQ();
  std::vector<SymbolId> fv = {InternSymbol("x")};

  Session::Options seq_opts;
  seq_opts.num_threads = 1;
  seq_opts.parallel_row_threshold = 0;
  Session sequential(JoinDb(n), seq_opts);

  Session::Options par_opts;
  par_opts.num_threads = 7;
  par_opts.parallel_row_threshold = 1;
  Session parallel(JoinDb(n), par_opts);

  ASSERT_EQ(Materialize(testutil::SessionCertainAnswers(sequential, q, fv)),
            Materialize(testutil::SessionCertainAnswers(parallel, q, fv)));

  for (int step = 0; step < 12; ++step) {
    int k = (step * 13) % n;
    std::string a = "a" + std::to_string(k);
    std::string b = "b" + std::to_string(k);
    Delta delta;
    std::vector<Fact> facts = {Fact::Make("R", {a, b}, 1)};
    if (step % 2 == 0) {
      facts.push_back(Fact::Make("R", {a, "nowhere"}, 1));
    }
    delta.ReplaceBlock(InternSymbol("R"), {InternSymbol(a)}, facts);
    ASSERT_TRUE(sequential.ApplyDelta(delta).ok());
    ASSERT_TRUE(parallel.ApplyDelta(delta).ok());
    ASSERT_EQ(Materialize(testutil::SessionCertainAnswers(sequential, q, fv)),
              Materialize(testutil::SessionCertainAnswers(parallel, q, fv)))
        << "step " << step;
    ASSERT_TRUE(AnswerPath(sequential.stats()) == AnswerPath(parallel.stats()))
        << "step " << step;
  }
  // The incremental path actually ran (this guards the test itself).
  EXPECT_GT(sequential.stats().answers_incremental, 0u);
  // And the parallel session actually partitioned work.
  EXPECT_GT(parallel.stats().parallel_batches, 0u);
}

TEST(ParallelRows, ConcurrentBatchesWithNestedPartitioning) {
  // Multiple external threads serve large uncached batches through ONE
  // session at threshold 1: every request fans row chunks out across
  // the same pool (nested fan-out + help-while-waiting under load).
  Session::Options options;
  options.num_threads = 4;
  options.parallel_row_threshold = 1;
  options.answer_cache_capacity = 0;
  Session session(JoinDb(150), options);
  Query q = JoinQ();
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Rows expected = Materialize(testutil::SessionCertainAnswers(session, q, fv));

  std::atomic<int> disagreements{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        Rows got = Materialize(testutil::SessionCertainAnswers(session, q, fv));
        if (got != expected) disagreements.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(disagreements.load(), 0);
}

/// One index shared by four workers, as a session's is: each worker's
/// first probe is a (relation, position) pair of its own, so the four
/// lazy table builds race each other, and then every worker probes every
/// pair, racing the builds still running. Every run must equal the one a
/// sequentially probed index gives, and the index must end up holding
/// exactly one copy of each table.
TEST(ParallelRows, WorkersRaceFirstProbesOfOneSharedIndex) {
  Database db;
  const std::vector<SymbolId> relations = {InternSymbol("P1"),
                                           InternSymbol("P2")};
  for (SymbolId rel : relations) {
    for (int i = 0; i < 3000; ++i) {
      std::vector<SymbolId> values = {
          InternSymbol("k" + std::to_string(i)),
          InternSymbol("u" + std::to_string(i % 97)),
          InternSymbol("w" + std::to_string(i % 13))};
      ASSERT_TRUE(db.AddFact(Fact(rel, values, 1)).ok());
    }
  }
  // (relation, position) pairs whose tables the index builds itself.
  std::vector<std::pair<SymbolId, int>> pairs;
  for (SymbolId rel : relations) {
    for (int pos : {1, 2}) pairs.emplace_back(rel, pos);
  }
  auto probe_all = [&](const FactIndex& index, size_t first) {
    std::vector<std::vector<int>> runs;
    for (size_t k = 0; k < pairs.size(); ++k) {
      const auto& [rel, pos] = pairs[(first + k) % pairs.size()];
      for (int v = 0; v < 100; ++v) {
        std::string name = (pos == 1 ? "u" : "w") + std::to_string(v);
        FactRun run = index.FactsAt(rel, pos, InternSymbol(name));
        runs.emplace_back(run.begin(), run.end());
        std::sort(runs.back().begin(), runs.back().end());
      }
    }
    // Back in the pairs' own order, whatever order they were probed in.
    std::rotate(runs.begin(), runs.end() - first * 100, runs.end());
    return runs;
  };
  FactIndex sequential(db);
  const std::vector<std::vector<int>> expected = probe_all(sequential, 0);
  for (int round = 0; round < 8; ++round) {
    FactIndex shared(db);
    std::atomic<int> ready{0};
    std::vector<std::vector<std::vector<int>>> got(pairs.size());
    std::vector<std::thread> workers;
    for (size_t w = 0; w < pairs.size(); ++w) {
      workers.emplace_back([&, w] {
        ready.fetch_add(1);
        while (ready.load() < static_cast<int>(pairs.size())) {
        }
        got[w] = probe_all(shared, w);
      });
    }
    for (std::thread& t : workers) t.join();
    for (size_t w = 0; w < pairs.size(); ++w) {
      EXPECT_EQ(got[w], expected) << "round " << round << " worker " << w;
    }
    EXPECT_EQ(shared.bytes(), sequential.bytes()) << "round " << round;
  }
}

TEST(ParallelRows, InternerConcurrentInternAndLookup) {
  // The lock-free read path under contention: writers intern fresh and
  // overlapping strings while readers resolve every published id back
  // to its string. TSan checks the publication protocol; the asserts
  // check id<->string consistency.
  Interner interner;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 3000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&interner, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // Half private, half shared across writers.
        std::string s = (i % 2 == 0 ? "shared" : "w" + std::to_string(w)) +
                        ":" + std::to_string(i);
        SymbolId id = interner.Intern(s);
        ASSERT_EQ(interner.Lookup(id), s);
        ASSERT_EQ(interner.Intern(s), id);  // idempotent
      }
    });
  }
  threads.emplace_back([&interner, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      size_t n = interner.size();
      for (SymbolId id = 0; id < n; id += 97) {
        ASSERT_FALSE(interner.Lookup(id).empty() && id != 0);
      }
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  // 1 (empty) + kPerWriter/2 shared + kWriters * kPerWriter/2 private.
  EXPECT_EQ(interner.size(),
            1u + kPerWriter / 2 + kWriters * (kPerWriter / 2));
  Interner::Stats stats = interner.stats();
  EXPECT_EQ(stats.symbols, interner.size());
  EXPECT_EQ(stats.misses, interner.size() - 1);  // every append missed once
  EXPECT_GE(stats.lookups, stats.misses);
}

TEST(ParallelRows, GateCountsHandoffsAndReaderWaits) {
  WriterPriorityGate gate;
  EXPECT_EQ(gate.stats().writer_handoffs, 0u);
  EXPECT_EQ(gate.stats().reader_waits, 0u);

  // Uncontended reader traffic never touches the slow path.
  for (int i = 0; i < 100; ++i) {
    gate.lock_shared();
    gate.unlock_shared();
  }
  EXPECT_EQ(gate.stats().reader_waits, 0u);

  // A reader arriving while a writer is announced parks (and is
  // counted); two queued writers hand off writer-to-writer.
  gate.lock_shared();
  std::atomic<int> phase{0};
  std::thread w1([&] {
    gate.lock();  // blocks: a reader is inside
    phase.store(1);
    gate.unlock();
  });
  std::thread w2([&] {
    while (gate.stats().writer_handoffs == 0 && phase.load() < 1) {
      std::this_thread::yield();
    }
    gate.lock();
    phase.store(2);
    gate.unlock();
  });
  // Wait until at least one writer is parked behind our shared hold.
  while (!([&] {
        bool got = gate.try_lock_shared();
        if (got) gate.unlock_shared();
        return !got;  // refused => a writer is announced
      }())) {
    std::this_thread::yield();
  }
  std::thread late_reader([&] {
    gate.lock_shared();  // must park behind the announced writer(s)
    gate.unlock_shared();
  });
  while (gate.stats().reader_waits == 0) std::this_thread::yield();
  gate.unlock_shared();
  w1.join();
  w2.join();
  late_reader.join();
  EXPECT_GE(gate.stats().reader_waits, 1u);
  EXPECT_EQ(phase.load(), 2);
}

TEST(ParallelRows, DefaultServingThreadsHonorsEnvOverride) {
  // CQA_THREADS wins over hardware/cgroup detection — this is how the
  // CI matrix forces >=4-worker pools onto 1-core runners.
  const char* prev = std::getenv("CQA_THREADS");
  std::string saved = prev != nullptr ? prev : "";
  setenv("CQA_THREADS", "7", 1);
  EXPECT_EQ(DefaultServingThreads(), 7);
  setenv("CQA_THREADS", "0", 1);  // invalid: falls back to detection
  int detected = DefaultServingThreads();
  EXPECT_GE(detected, 1);
  EXPECT_LE(detected, 8);
  if (prev != nullptr) {
    setenv("CQA_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("CQA_THREADS");
  }
}

}  // namespace
}  // namespace cqa
