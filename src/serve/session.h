#ifndef CQA_SERVE_SESSION_H_
#define CQA_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"
#include "db/database.h"
#include "plan/query_plan.h"
#include "serve/row_block.h"
#include "solvers/solver.h"
#include "util/deadline.h"
#include "util/rw_gate.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// The engine room of the serving tier, reached through the one front
/// door — `cqa::Service` (serve/service.h), which owns a registry of
/// named Sessions, speaks versioned request structs and resolves every
/// query to a compiled `QueryPlan` before it reaches a session. A
/// session serves plans only: its entry points take the plan, never a
/// bare query.
///
/// A `Session` owns ONE uncertain database
/// and serves CERTAINTY decisions and certain-answer queries against it
/// over a *persistent* worker pool, while the database evolves through
/// transactional deltas:
///
///   * the session keeps ONE `FactIndex` over its database, shared by
///     every pool worker's `EvalContext` and surviving across calls. It
///     reads the database's own fact, relation and block tables, and
///     builds any other table on its first probe, once, behind that
///     table's own once-flag. `ApplyDelta` patches the built tables in
///     place (`FactIndex::Inserted/Erasing`) instead of letting the next
///     call reindex the world; the index is all the state a delta has to
///     patch besides the database;
///   * deltas are transactional (`Insert` / `Remove` / `ReplaceBlock`
///     ops validate as a unit against the pre-delta state; an invalid
///     op rejects the whole delta and mutates nothing) and bump the
///     session *epoch*;
///   * consistency is reader/writer: serving calls hold the epoch lock
///     shared for their whole batch, `ApplyDelta` takes it exclusively,
///     so every solve reads one consistent snapshot and no index is
///     ever patched mid-search;
///   * certain-answer results are cached per session and invalidated
///     *per answer row*. A changed block whose key pins free variables
///     (matched against the compiled plan's key patterns,
///     `AtomKeyPattern`) reaches the rows with those values. A changed
///     block matched by an atom whose key pins none reaches only the
///     rows its embeddings can produce: π_free of the embeddings of q's
///     atoms over relations no delta since the cached epoch touched,
///     seeded with that atom's key bound to the block's key (the reach
///     rule, see DirtyPatternsSince). Only the reached rows are
///     re-decided — in ONE set-at-a-time execution of the plan's
///     compiled FO program (`QueryPlan::IsCertainRows`), not one
///     interpreter descent per dirty row — and the candidate scan for
///     those rows is seeded with the touched values so the matcher's
///     key-prefix buckets prune the enumeration. Rows out of every
///     changed block's reach are served straight from the cache — which
///     is what makes a small delta over a large database cheap to
///     re-serve;
///   * answers are returned as shared, immutable flat snapshots
///     (`RowBlock`, copy-on-write): a cache hit hands back the cached
///     `shared_ptr` instead of copying every row per serve, a delta no
///     changed block of which reaches the entry keeps the snapshot, and
///     a refresh copies the runs of unreached rows into a fresh
///     snapshot without disturbing the ones earlier callers still hold.
///
/// Serving is parallel at TWO grains: whole requests fan out across the
/// pool (SolveBatch), and inside ONE request a large candidate row batch
/// is itself partitioned into contiguous chunks decided by several
/// workers at once (data parallelism; see
/// `Options::parallel_row_threshold`). The row split is exact: rows are
/// per-row-independent FO work, each chunk writes a disjoint span of the
/// output, and chunk boundaries don't alter any verdict — so the
/// parallel result (rows, order, and the answer-path stats) is
/// byte-identical to the sequential one. Nested fan-out from inside a
/// pool worker is deadlock-free because completion waits are
/// cooperative (`ThreadPool::HelpWhile`): a waiting worker drains the
/// pool queue instead of parking.

namespace cqa {

/// A transactional batch of database mutations. Ops apply in insertion
/// order with sequential semantics; validation of the whole batch
/// happens against the pre-delta database before anything mutates.
class Delta {
 public:
  /// Inserts a fact. Inserting an already-present fact is a no-op
  /// (idempotent upsert); a fact contradicting the relation's signature
  /// rejects the delta.
  Delta& Insert(Fact fact);

  /// Removes a fact. Removing an absent fact rejects the delta.
  Delta& Remove(Fact fact);

  /// Replaces the whole block (relation, key): current facts of the
  /// block are removed, `facts` (each of which must carry exactly this
  /// relation and key) are inserted. An empty `facts` deletes the
  /// block; a missing block makes this a pure insert.
  Delta& ReplaceBlock(SymbolId relation, std::vector<SymbolId> key,
                      std::vector<Fact> facts);

  bool empty() const { return ops_.empty(); }

  struct Op {
    enum class Kind { kInsert, kRemove, kReplaceBlock };
    Kind kind;
    Fact fact;                      // kInsert / kRemove
    SymbolId relation = 0;          // kReplaceBlock
    std::vector<SymbolId> key;      // kReplaceBlock
    std::vector<Fact> block_facts;  // kReplaceBlock
  };
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

/// Validates and applies `delta` to a bare database — no indexes, no
/// epochs, no pool. This is the replay primitive: recovery re-applies a
/// WAL tail with exactly the semantics `Session::ApplyDelta` committed
/// it under, and differential tests use it as the trivially-correct
/// oracle for the session's incremental path.
Status ApplyDeltaToDatabase(const Delta& delta, Database* db);

class Session {
 public:
  /// The shape of an answer page (`Service::CertainAnswersResponse`)
  /// and of the candidate rows the plan decides; whole answer sets are
  /// served as `RowBlock` snapshots.
  using RowSet = Backend::RowSet;

  struct Options {
    /// Worker threads; 0 = DefaultServingThreads().
    int num_threads = 0;
    /// Certain-answer cache entries kept (per canonical query).
    size_t answer_cache_capacity = 256;
    /// Deltas remembered for incremental invalidation; an answer-cache
    /// entry staler than this many epochs is recomputed in full.
    size_t delta_log_window = 64;
    /// Dirty key patterns tolerated per (entry, delta-range) before the
    /// incremental path gives up and recomputes in full. The rows the
    /// reach rule finds are full-row patterns; they are tolerated up to
    /// this many less the key patterns, or a third of the rows the
    /// entry's last full recompute decided if that is more (see
    /// DirtyPatternsSince).
    size_t max_dirty_patterns = 32;
    /// Minimum candidate rows in one decision batch before it is
    /// partitioned across the pool; smaller batches run on the calling
    /// worker (chunk dispatch overhead would dominate). 0 disables row
    /// partitioning entirely. Applies to both the full-recompute and
    /// the dirty-row re-decide paths; never changes results, only which
    /// worker decides which span.
    size_t parallel_row_threshold = 256;
    /// First epoch value; a session recovered from durable storage
    /// resumes the epoch chain its WAL left off at instead of
    /// restarting from 0.
    uint64_t initial_epoch = 0;
    /// Execution backend (backend/backend.h). Null (the default) means
    /// in memory: every decision runs on the session's own
    /// FoProgram/solver path. A SQLite backend mirrors deltas into its
    /// embedded database and serves FO-rewritable plans as pushed-down
    /// SQL. Each request passes its AdmitFallback gate once, which
    /// admits a plan the backend runs and applies the fallback policy to
    /// any other; a request the backend then declines is served in
    /// memory.
    std::shared_ptr<Backend> backend;
    /// Called under the exclusive epoch gate after a delta validates
    /// and BEFORE anything mutates, with the epoch the delta will
    /// commit as. A non-OK return rejects the delta untouched — this is
    /// where a durable store appends to its write-ahead log.
    std::function<Status(const Delta&, uint64_t)> commit_hook;
    /// Called under the exclusive epoch gate after the mutation, with
    /// the post-delta database and its epoch — where a durable store
    /// triggers snapshot compaction against a consistent view.
    std::function<void(const Database&, uint64_t)> post_commit_hook;
  };

  /// Takes ownership of the database snapshot.
  explicit Session(Database db);
  /// Takes ownership of `db` and spins up the persistent worker pool
  /// (the shared index's tables build on first probe).
  Session(Database db, const Options& options);
  /// Joins the pool. Row-set snapshots handed out earlier stay valid —
  /// they are shared, immutable, and own their storage.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Monotone version of the owned database; bumped by every applied
  /// delta.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// The owned database. Only coherent while no ApplyDelta runs
  /// concurrently.
  const Database& db() const { return db_; }

  /// Applies the delta transactionally: validates every op against the
  /// pre-delta state, then mutates the database and patches the shared
  /// index incrementally. Returns the new epoch. On error nothing
  /// changed.
  Result<uint64_t> ApplyDelta(const Delta& delta);

  /// Marks the session dropped (taken off a registry). Acquires the
  /// exclusive epoch gate, so it strictly orders against every
  /// in-flight ApplyDelta: a delta racing a drop either commits before
  /// the drop or fails NotFound — never lands silently on a zombie.
  void MarkDefunct();
  bool defunct() const { return defunct_.load(std::memory_order_acquire); }

  // --------------------------------------------------------- serving
  /// Plan-resolved serving: `cqa::Service` pins a compiled plan to each
  /// prepared-query handle (or resolves an ad-hoc query through its plan
  /// cache), so no canonicalization or cache lookup runs here.
  /// `epoch_out`, when non-null, receives the exact epoch the request
  /// was served at (read under the epoch gate, so it cannot race a
  /// concurrent delta).
  ///
  /// Decides CERTAINTY of each plan against one epoch, fanned out
  /// across the worker pool; results align positionally and each
  /// carries its own status. Holds the epoch gate shared for the whole
  /// batch. `deadline` applies to the whole batch: items not yet
  /// dispatched when it fires answer kDeadlineExceeded individually. A
  /// running FO program, SAT or oracle solve polls it too and stops
  /// with kDeadlineExceeded; the polynomial solvers (terminal cycles,
  /// AC(k), C(k)) run to completion once started.
  std::vector<Result<SolveOutcome>> SolveBatch(
      const std::vector<std::shared_ptr<const QueryPlan>>& plans,
      uint64_t* epoch_out = nullptr, const Deadline& deadline = Deadline());

  /// Certain answers of (q, free_vars), served from the per-session
  /// cache when the epoch allows it (fully, or re-deciding only the
  /// dirty rows). `plan` must be the compiled plan of (q, free_vars) —
  /// the Service guarantees that by construction of its prepared
  /// handles. The returned snapshot is shared with the cache
  /// (copy-on-write): no per-serve row copy. Its width is
  /// free_vars.size().
  /// `deadline` is polled cooperatively through the whole decision
  /// pipeline (candidate chunk dispatch and the FO program's batch
  /// loops); expiry abandons the serve with kDeadlineExceeded and
  /// leaves the answer cache untouched.
  Result<std::shared_ptr<const RowBlock>> CertainAnswers(
      const std::shared_ptr<const QueryPlan>& plan, const Query& q,
      const std::vector<SymbolId>& free_vars, uint64_t* epoch_out = nullptr,
      const Deadline& deadline = Deadline());

  /// Opens a stable-snapshot answer cursor on the session's backend for
  /// a parameterized plan, under the shared epoch gate (so the pinned
  /// snapshot is exactly `*epoch_out`). A null cursor (no backend, plan
  /// not natively servable, or no snapshot support) is not an error —
  /// the caller serves through the materialized-snapshot path instead.
  /// The backend counts the pinned set under `deadline`.
  Result<std::shared_ptr<Backend::AnswerCursor>> OpenAnswerCursor(
      const std::shared_ptr<const QueryPlan>& plan,
      uint64_t* epoch_out = nullptr, const Deadline& deadline = Deadline());

  struct Stats {
    uint64_t deltas_applied = 0;
    uint64_t facts_added = 0;
    uint64_t facts_removed = 0;
    uint64_t solves = 0;
    /// CertainAnswers outcomes by path.
    uint64_t answers_cached = 0;       // served verbatim from cache
    uint64_t answers_incremental = 0;  // dirty rows re-decided only
    uint64_t answers_full = 0;         // full recompute
    /// Full recomputes whose candidates came from one atom covering
    /// every free variable instead of the join (see ComputeCertainFull).
    uint64_t answers_covered = 0;
    /// Row-level accounting across the incremental path.
    uint64_t rows_reused = 0;
    uint64_t rows_decided = 0;
    /// Data-parallel execution: decision batches that were partitioned
    /// across workers, and the chunks they split into. Scheduling
    /// telemetry only — never part of the deterministic answer
    /// contract (the same traffic under a different pool size legally
    /// reports different values here).
    uint64_t parallel_batches = 0;
    uint64_t parallel_chunks = 0;
    /// Epoch-gate contention (util/rw_gate.h): writer-to-writer
    /// hand-offs and readers parked behind an announced writer.
    uint64_t gate_writer_handoffs = 0;
    uint64_t gate_reader_waits = 0;
    /// Gauge: bytes of the shared index's tables (slot arrays and id
    /// runs), however many workers probe it.
    uint64_t index_bytes = 0;
  };
  /// One consistent copy of the serving counters (taken under the
  /// stats lock; gate counters read from the gate's own atomics, the
  /// index gauge from the index's).
  Stats stats() const;

 private:
  /// One cached certain-answer result, keyed (in answers_) by the
  /// plan's canonical key — α-variant requests share the entry. The
  /// serve path re-resolves query and plan from the caller each call,
  /// so the entry carries only what invalidation needs.
  struct CacheEntry {
    uint64_t epoch = 0;
    /// Immutable shared snapshot; replaced wholesale on refresh, never
    /// mutated, so callers holding the pointer are unaffected.
    std::shared_ptr<const RowBlock> rows;
    /// The rows the entry's last full recompute decided: what the next
    /// one would cost, and so the reach bound (see DirtyPatternsSince).
    size_t full_rows = 0;
    std::list<std::string>::iterator lru_pos;
  };

  /// One applied delta: the blocks it changed, at the epoch it created.
  struct DeltaRecord {
    uint64_t epoch = 0;
    /// Deduped (relation, key) pairs of the blocks whose contents differ
    /// from the pre-delta database: a block that one op changes and a
    /// later op restores is not logged.
    std::vector<std::pair<SymbolId, std::vector<SymbolId>>> blocks;
  };

  /// Runs `serve(ctx, index)` for index in [0, n) over the persistent
  /// pool (min(n, pool size) cursor workers) and waits for completion
  /// of exactly these submissions. Safe to call from inside a pool
  /// worker (nested fan-out): the caller then participates in its own
  /// batch and help-waits on the pool queue instead of parking, so
  /// nested batches cannot deadlock even with every worker waiting.
  void RunOnPool(size_t n,
                 const std::function<void(EvalContext&, size_t)>& serve);

  /// The request's one backend gate: OK without a backend, else the
  /// backend's AdmitFallback (OK for a plan it runs, its fallback
  /// policy for any other).
  Status AdmitPlan(const QueryPlan& plan);

  /// Boolean decision of an admitted `plan`: the backend's pushed-down
  /// solve, or plan.Solve(ctx, deadline) without a backend or on a
  /// decline.
  Result<SolveOutcome> SolvePlanRouted(EvalContext& ctx,
                                       const QueryPlan& plan,
                                       const Deadline& deadline);

  /// Decides `rows` against `plan`, equivalent to
  /// `plan.IsCertainRows(ctx, rows)`. An empty batch calls nothing. The
  /// backend, if any, gets the whole batch first; without one or on a
  /// decline the batch is partitioned across the pool in contiguous
  /// chunks when it is large enough (`Options::parallel_row_threshold`)
  /// and workers are available.
  /// Deterministic: output and error selection are independent of the
  /// partitioning (on failure, the error of the lowest-indexed failing
  /// chunk is returned). `ctx` is the calling worker's context, used
  /// directly for the sequential path and for the caller's own share of
  /// a partitioned batch.
  Result<std::vector<char>> DecideRows(EvalContext& ctx,
                                       const QueryPlan& plan,
                                       const RowSet& rows,
                                       const Deadline& deadline);

  Result<std::shared_ptr<const RowBlock>> ServeCertain(
      EvalContext& ctx, const std::shared_ptr<const QueryPlan>& plan,
      const Query& q, const std::vector<SymbolId>& free_vars,
      const Deadline& deadline = Deadline());

  /// Full candidate enumeration + one batched (set-at-a-time) decision;
  /// a Boolean entry is the plan's decision alone (SolvePlanRouted).
  /// The candidates are π_free(q(D)), the possible answers, unless q
  /// has two or more atoms, the plan decides rows by its FO program and
  /// `previous_rows` (the answer count of the entry's stale snapshot) is
  /// known: then they are π_free(A(D)) for the atom A of q covering every
  /// free variable (the one with the fewest facts), provided A has at
  /// most 1.5 times `previous_rows` facts. A certain row is possible, so
  /// it lies in π_free(q(D)) ⊆ π_free(A(D)), and the program rejects the
  /// rest. The 1.5× rule keeps a large A beside a selective join on the
  /// join: in BM_Session_CoveringRule, where each answer has one
  /// embedding (the join at its cheapest), A is faster at 1×, level with
  /// the join near 1.4× and slower from 1.6×.
  /// `*decided` receives the rows decided: the candidates, or the
  /// answers of a pushed-down set.
  Result<RowBlock> ComputeCertainFull(EvalContext& ctx, const Query& q,
                                      const std::vector<SymbolId>& free_vars,
                                      const QueryPlan& plan,
                                      std::optional<size_t> previous_rows,
                                      const Deadline& deadline,
                                      size_t* decided);

  /// The dirty patterns (rows to re-decide) of (q, free_vars) since
  /// `from_epoch`, or nullopt when incremental serving is not possible:
  /// a log gap, a Boolean entry one of whose atoms a changed block
  /// matches, a changed block whose reach cannot be bounded, more than
  /// max_dirty_patterns distinct key patterns, or more reached rows than
  /// the reach bound below. `full_rows` is the rows the entry's last full
  /// recompute decided.
  ///
  /// A changed block matching an atom's key pattern gives the pattern
  /// binding the free variables that key pins. When it pins none, the
  /// reach rule applies. Let U be the atoms of q over relations that no
  /// delta since `from_epoch` touched. If U's variables cover every free
  /// variable, each row of π_free of U's embeddings in ctx's index,
  /// seeded for every atom A of the block's relation whose key pins no
  /// free variable with A's key bound to the block's key (constants and
  /// repeated variables checked), becomes a full-binding pattern;
  /// otherwise the result is nullopt. Only the components of U (atoms
  /// linked by shared variables) that share a variable with A's key are
  /// enumerated. Another component without a free variable only filters
  /// and is left out; one with a free variable would make the rows a
  /// cross product with all of its projections, so the result is nullopt.
  /// This is sound by the purification lemma: an embedding through a
  /// fact of the block, in the cached epoch's database or in the current
  /// one, maps U to facts both databases share, so it projects to one of
  /// those rows. A row outside every pattern has no embedding through a
  /// changed block on either side, and deleting the changed blocks,
  /// which preserves its certainty on both sides, leaves two equal
  /// databases.
  ///
  /// The reach bound is max_dirty_patterns less the key patterns, or
  /// full_rows / 3 if that is more, and the enumeration stops as soon as
  /// the reached rows pass it. A reach refresh costs about one seeded
  /// decision per reached row, a full recompute one decision per
  /// candidate; in BM_Session_ReachRule (1,024 to 16,384 R-blocks, one
  /// S-block dropped or restored per request) the two meet at two fifths
  /// to a half of the rows a recompute decides. Bounding by those rows,
  /// not by the cached answers, keeps a delta that drops k reached rows
  /// from shrinking the bound for the delta that restores them.
  /// The enumeration polls `deadline` (kDeadlineExceeded).
  Result<std::optional<std::vector<RowPattern>>> DirtyPatternsSince(
      EvalContext& ctx, uint64_t from_epoch, const QueryPlan& plan,
      const Query& q, const std::vector<SymbolId>& free_vars,
      size_t full_rows, const Deadline& deadline) const;

  /// Applies one validated primitive action and patches the index.
  void ApplyAdd(const Fact& fact);
  void ApplyRemove(const Fact& fact);

  Options options_;
  Database db_;
  /// The one index over db_, which every worker's context borrows. Its
  /// tables build on first probe behind their own once-flags, under the
  /// shared gate; ApplyDelta patches it under the exclusive gate.
  FactIndex index_;

  /// Serving holds it shared for a whole call; ApplyDelta exclusively.
  /// Writer-priority (pending-writer counter + condvar): the moment a
  /// delta announces itself, new serving calls queue behind it, so
  /// ApplyDelta cannot starve under saturated read load the way a
  /// reader-preferring `std::shared_mutex` lets it.
  mutable WriterPriorityGate epoch_mu_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> defunct_{false};

  /// Per-worker contexts, index-aligned with the pool's workers; each
  /// borrows index_.
  std::vector<std::unique_ptr<EvalContext>> workers_;

  /// Applied-delta history, newest at the back, trimmed to
  /// options_.delta_log_window.
  std::deque<DeltaRecord> delta_log_;

  /// Certain-answer cache, keyed by the plan's canonical key.
  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, CacheEntry> answers_;
  std::list<std::string> lru_;  // front = most recent

  mutable std::mutex stats_mu_;
  Stats stats_;

  /// Declared last: its destructor joins the workers while the members
  /// above (which tasks reference) are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cqa

#endif  // CQA_SERVE_SESSION_H_
