#include "serve/session.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <unordered_set>
#include <utility>

#include "cq/matcher.h"

namespace cqa {

// ------------------------------------------------------------- Delta

Delta& Delta::Insert(Fact fact) {
  Op op;
  op.kind = Op::Kind::kInsert;
  op.fact = std::move(fact);
  ops_.push_back(std::move(op));
  return *this;
}

Delta& Delta::Remove(Fact fact) {
  Op op;
  op.kind = Op::Kind::kRemove;
  op.fact = std::move(fact);
  ops_.push_back(std::move(op));
  return *this;
}

Delta& Delta::ReplaceBlock(SymbolId relation, std::vector<SymbolId> key,
                           std::vector<Fact> facts) {
  Op op;
  op.kind = Op::Kind::kReplaceBlock;
  op.relation = relation;
  op.key = std::move(key);
  op.block_facts = std::move(facts);
  ops_.push_back(std::move(op));
  return *this;
}

namespace {

using FactSet = std::unordered_set<Fact, FactHash>;

/// Resolves the delta into primitive actions with sequential semantics,
/// validating every op against the pre-delta database overlaid with the
/// effect of the earlier ops. Nothing is mutated here — an error
/// rejects the whole delta, and the apply phase cannot fail.
Result<std::vector<Backend::Mutation>> ValidateDelta(const Database& db,
                                                     const Delta& delta) {
  std::vector<Backend::Mutation> actions;
  FactSet inserted;
  FactSet removed;
  // Signatures of relations first introduced by this delta.
  std::unordered_map<SymbolId, std::pair<int, int>> new_sigs;

  auto contains = [&](const Fact& f) {
    if (removed.count(f) != 0) return false;
    if (inserted.count(f) != 0) return true;
    return db.Contains(f);
  };
  auto check_signature = [&](const Fact& f) -> Status {
    auto sig = db.schema().Find(f.relation());
    if (sig.has_value()) {
      if (sig->arity != f.arity() || sig->key_arity != f.key_arity()) {
        return Status::InvalidArgument(
            "fact " + f.ToString() + " contradicts signature of relation '" +
            SymbolName(f.relation()) + "'");
      }
      return Status::OK();
    }
    auto [it, fresh] = new_sigs.try_emplace(
        f.relation(), f.arity(), f.key_arity());
    if (!fresh && (it->second.first != f.arity() ||
                   it->second.second != f.key_arity())) {
      return Status::InvalidArgument(
          "delta introduces relation '" + SymbolName(f.relation()) +
          "' with two different signatures");
    }
    return Status::OK();
  };
  auto do_insert = [&](const Fact& f) -> Status {
    CQA_RETURN_NOT_OK(check_signature(f));
    if (contains(f)) return Status::OK();  // idempotent upsert
    removed.erase(f);
    inserted.insert(f);
    actions.push_back({true, f});
    return Status::OK();
  };
  auto do_remove = [&](const Fact& f) -> Status {
    if (!contains(f)) {
      return Status::NotFound("delta removes absent fact " + f.ToString());
    }
    inserted.erase(f);
    removed.insert(f);
    actions.push_back({false, f});
    return Status::OK();
  };

  for (const Delta::Op& op : delta.ops()) {
    switch (op.kind) {
      case Delta::Op::Kind::kInsert:
        CQA_RETURN_NOT_OK(do_insert(op.fact));
        break;
      case Delta::Op::Kind::kRemove:
        CQA_RETURN_NOT_OK(do_remove(op.fact));
        break;
      case Delta::Op::Kind::kReplaceBlock: {
        FactSet desired;
        for (const Fact& f : op.block_facts) {
          if (f.relation() != op.relation ||
              f.key_arity() != static_cast<int>(op.key.size()) ||
              f.KeyValues() != op.key) {
            return Status::InvalidArgument(
                "ReplaceBlock fact " + f.ToString() +
                " does not belong to the replaced block");
          }
          desired.insert(f);
        }
        // The block's live contents under the overlay: its pre-delta
        // facts plus any overlay inserts landing in it.
        std::vector<Fact> current;
        if (const Database::Block* block =
                db.FindBlock(op.relation, op.key)) {
          for (int fid : block->fact_ids) {
            const Fact& f = db.facts()[fid];
            if (contains(f)) current.push_back(f);
          }
        }
        for (const Fact& f : inserted) {
          if (f.relation() == op.relation &&
              f.key_arity() == static_cast<int>(op.key.size()) &&
              f.KeyValues() == op.key && !db.Contains(f)) {
            current.push_back(f);
          }
        }
        for (const Fact& f : current) {
          if (desired.count(f) == 0) CQA_RETURN_NOT_OK(do_remove(f));
        }
        for (const Fact& f : op.block_facts) {
          CQA_RETURN_NOT_OK(do_insert(f));
        }
        break;
      }
    }
  }
  return actions;
}

}  // namespace

Status ApplyDeltaToDatabase(const Delta& delta, Database* db) {
  Result<std::vector<Backend::Mutation>> actions = ValidateDelta(*db, delta);
  if (!actions.ok()) return actions.status();
  for (const Backend::Mutation& action : *actions) {
    Status st = action.add ? db->AddFact(action.fact)
                           : db->RemoveFact(action.fact);
    CQA_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

// ----------------------------------------------------------- Session

Session::Session(Database db) : Session(std::move(db), Options()) {}

Session::Session(Database db, const Options& options)
    : options_(options), db_(std::move(db)), index_(db_) {
  epoch_.store(options_.initial_epoch, std::memory_order_release);
  int n = options_.num_threads > 0 ? options_.num_threads
                                   : DefaultServingThreads();
  pool_ = std::make_unique<ThreadPool>(n);
  workers_.reserve(pool_->size());
  for (int i = 0; i < pool_->size(); ++i) {
    workers_.push_back(std::make_unique<EvalContext>(db_, index_));
  }
}

Session::~Session() = default;

Session::Stats Session::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  WriterPriorityGate::Stats gate = epoch_mu_.stats();
  out.gate_writer_handoffs = gate.writer_handoffs;
  out.gate_reader_waits = gate.reader_waits;
  out.index_bytes = index_.bytes();
  return out;
}

void Session::ApplyAdd(const Fact& fact) {
  Status st = db_.AddFact(fact);
  assert(st.ok());
  (void)st;
  index_.Inserted(db_.FactId(fact));
}

void Session::ApplyRemove(const Fact& fact) {
  // The index drops the fact's id and renumbers the last fact, which
  // RemoveFact moves into that id, while both still read as before.
  int id = db_.FactId(fact);
  assert(id >= 0);
  index_.Erasing(id);
  Status st = db_.RemoveFact(fact);
  assert(st.ok());
  (void)st;
}

void Session::MarkDefunct() {
  std::unique_lock<WriterPriorityGate> lock(epoch_mu_);
  defunct_.store(true, std::memory_order_release);
}

Result<uint64_t> Session::ApplyDelta(const Delta& delta) {
  std::unique_lock<WriterPriorityGate> lock(epoch_mu_);
  if (defunct_.load(std::memory_order_relaxed)) {
    return Status::NotFound("database was dropped");
  }

  Result<std::vector<Backend::Mutation>> actions = ValidateDelta(db_, delta);
  if (!actions.ok()) return actions.status();

  uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
  if (options_.commit_hook) {
    // Write-ahead point: the delta must be durable (or durably refused)
    // before any in-memory state changes.
    CQA_RETURN_NOT_OK(options_.commit_hook(delta, next));
  }

  uint64_t added = 0;
  uint64_t removed = 0;
  // A fact's actions alternate between add and remove, so it differs
  // from the pre-delta database iff it has an odd number of them.
  std::unordered_map<Fact, bool, FactHash> flipped;
  for (const Backend::Mutation& action : *actions) {
    if (action.add) {
      ApplyAdd(action.fact);
      ++added;
    } else {
      ApplyRemove(action.fact);
      ++removed;
    }
    bool& odd = flipped[action.fact];
    odd = !odd;
  }
  // Log only the blocks whose contents moved: a block that one op
  // changes and a later op restores reaches no row.
  std::vector<std::pair<SymbolId, std::vector<SymbolId>>> blocks;
  for (const auto& [fact, odd] : flipped) {
    if (odd) blocks.emplace_back(fact.relation(), fact.KeyValues());
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());

  delta_log_.push_back(DeltaRecord{next, std::move(blocks)});
  while (delta_log_.size() > options_.delta_log_window) {
    delta_log_.pop_front();
  }
  epoch_.store(next, std::memory_order_release);

  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.deltas_applied;
    stats_.facts_added += added;
    stats_.facts_removed += removed;
  }
  if (options_.backend != nullptr) {
    // A mirror failure degrades the backend (it starts declining every
    // pushdown) but never the committed delta: the in-memory database
    // is authoritative.
    Status mirrored = options_.backend->ApplyMutations(*actions);
    (void)mirrored;
  }
  if (options_.post_commit_hook) options_.post_commit_hook(db_, next);
  return next;
}

// ----------------------------------------------------------- serving

void Session::RunOnPool(
    size_t n, const std::function<void(EvalContext&, size_t)>& serve) {
  if (n == 0) return;
  std::atomic<size_t> cursor{0};
  auto drain = [&](EvalContext& ctx) {
    for (size_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
      serve(ctx, i);
    }
  };

  int here = pool_->WorkerIndexHere();
  if (here >= 0) {
    // Nested fan-out (data-parallel row chunks dispatched from inside a
    // serving task): the calling worker PARTICIPATES — it spawns up to
    // pool-1 sibling drains, works the shared cursor itself, then
    // help-waits, executing other queued tasks instead of parking. A
    // waiting worker can therefore never strand the queue, which is
    // what makes nested batches deadlock-free at any pool size.
    size_t spawned =
        std::min<size_t>(static_cast<size_t>(pool_->size()) - 1, n - 1);
    if (spawned == 0) {
      drain(*workers_[here]);
      return;
    }
    std::mutex done_mu;
    size_t remaining = spawned;
    for (size_t t = 0; t < spawned; ++t) {
      pool_->Submit([&] {
        int w = pool_->WorkerIndexHere();
        assert(w >= 0);
        drain(*workers_[w]);
        bool last;
        {
          // The waiter may destroy these stack variables as soon as its
          // predicate (which locks done_mu) observes remaining == 0 —
          // touch nothing batch-local after this block. NotifyHelpers
          // only touches pool state, which outlives the batch.
          std::lock_guard<std::mutex> lock(done_mu);
          last = (--remaining == 0);
        }
        if (last) pool_->NotifyHelpers();
      });
    }
    drain(*workers_[here]);
    pool_->HelpWhile([&] {
      std::lock_guard<std::mutex> lock(done_mu);
      return remaining == 0;
    });
    return;
  }

  int spawned = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(pool_->size()), n));
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = spawned;
  for (int t = 0; t < spawned; ++t) {
    pool_->Submit([&] {
      int w = pool_->WorkerIndexHere();
      assert(w >= 0);
      drain(*workers_[w]);
      // Notify while holding the mutex: the waiter owns these stack
      // variables and may destroy them as soon as it can observe
      // remaining == 0, which it cannot before this lock is released.
      std::lock_guard<std::mutex> lock(done_mu);
      --remaining;
      done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

Status Session::AdmitPlan(const QueryPlan& plan) {
  if (options_.backend == nullptr) return Status::OK();
  return options_.backend->AdmitFallback(plan,
                                         static_cast<size_t>(db_.size()));
}

Result<SolveOutcome> Session::SolvePlanRouted(EvalContext& ctx,
                                              const QueryPlan& plan,
                                              const Deadline& deadline) {
  if (options_.backend != nullptr) {
    Result<std::optional<bool>> pushed =
        options_.backend->SolveCertain(plan, deadline);
    if (!pushed.ok()) return pushed.status();
    if (pushed->has_value()) {
      SolveOutcome out;
      out.certain = **pushed;
      out.complexity = plan.complexity();
      out.solver = plan.solver_kind();
      return out;
    }
  }
  return plan.Solve(ctx, deadline);
}

Result<std::vector<char>> Session::DecideRows(EvalContext& ctx,
                                              const QueryPlan& plan,
                                              const RowSet& rows,
                                              const Deadline& deadline) {
  size_t n = rows.size();
  if (n == 0) return std::vector<char>();
  if (options_.backend != nullptr) {
    // A backend that runs the plan decides the rows itself, on its one
    // serialized connection: it gets the whole batch instead of pool
    // workers queueing on that connection.
    Result<std::optional<std::vector<char>>> pushed =
        options_.backend->DecideRows(plan, rows, deadline);
    if (!pushed.ok()) return pushed.status();
    if (pushed->has_value()) return std::move(**pushed);
  }
  size_t threshold = options_.parallel_row_threshold;
  if (threshold == 0 || n < threshold || pool_->size() < 2) {
    return plan.IsCertainRows(ctx, rows, deadline);
  }
  // Contiguous chunks into disjoint output spans: assembly is free and
  // the result is byte-identical to sequential by construction. ~4
  // chunks per worker keeps the cursor balancing uneven chunk costs
  // without shrinking chunks below the per-dispatch overhead floor.
  constexpr size_t kMinRowChunk = 64;
  size_t workers = static_cast<size_t>(pool_->size());
  size_t chunk =
      std::max(kMinRowChunk, (n + workers * 4 - 1) / (workers * 4));
  size_t nchunks = (n + chunk - 1) / chunk;
  std::vector<char> out(n, 0);
  std::vector<Status> errors(nchunks, Status::OK());
  RunOnPool(nchunks, [&](EvalContext& worker_ctx, size_t c) {
    // Cooperative cancellation at chunk grain: a chunk not yet started
    // when the deadline fires is skipped outright, on top of the
    // in-chunk checkpoints IsCertainRowSpan itself polls.
    if (deadline.Expired()) {
      errors[c] = Status::DeadlineExceeded("deadline expired deciding rows");
      return;
    }
    size_t begin = c * chunk;
    size_t end = std::min(n, begin + chunk);
    errors[c] =
        plan.IsCertainRowSpan(worker_ctx, rows, begin, end, &out, deadline);
  });
  // Deterministic error selection: the lowest-indexed failing chunk,
  // independent of which worker failed first in wall time.
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.parallel_batches;
    stats_.parallel_chunks += nchunks;
  }
  return out;
}

std::vector<Result<SolveOutcome>> Session::SolveBatch(
    const std::vector<std::shared_ptr<const QueryPlan>>& plans,
    uint64_t* epoch_out, const Deadline& deadline) {
  std::shared_lock<WriterPriorityGate> lock(epoch_mu_);
  if (epoch_out != nullptr) {
    // Exact while the gate is held shared: no delta can commit.
    *epoch_out = epoch_.load(std::memory_order_relaxed);
  }
  std::vector<Result<SolveOutcome>> results(
      plans.size(),
      Result<SolveOutcome>(Status::Internal("batch item not served")));
  RunOnPool(plans.size(), [&](EvalContext& ctx, size_t i) {
    if (deadline.Expired()) {
      results[i] =
          Status::DeadlineExceeded("deadline expired before batch item ran");
      return;
    }
    Status admitted = AdmitPlan(*plans[i]);
    results[i] = admitted.ok() ? SolvePlanRouted(ctx, *plans[i], deadline)
                               : Result<SolveOutcome>(admitted);
  });
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.solves += plans.size();
  }
  return results;
}

Result<std::shared_ptr<const RowBlock>> Session::CertainAnswers(
    const std::shared_ptr<const QueryPlan>& plan, const Query& q,
    const std::vector<SymbolId>& free_vars, uint64_t* epoch_out,
    const Deadline& deadline) {
  using Snapshot = std::shared_ptr<const RowBlock>;
  std::shared_lock<WriterPriorityGate> lock(epoch_mu_);
  if (epoch_out != nullptr) {
    // Exact while the gate is held shared: no delta can commit.
    *epoch_out = epoch_.load(std::memory_order_relaxed);
  }
  Result<Snapshot> result = Status::Internal("not served");
  RunOnPool(1, [&](EvalContext& ctx, size_t) {
    result = ServeCertain(ctx, plan, q, free_vars, deadline);
  });
  return result;
}

Result<std::shared_ptr<Backend::AnswerCursor>> Session::OpenAnswerCursor(
    const std::shared_ptr<const QueryPlan>& plan, uint64_t* epoch_out,
    const Deadline& deadline) {
  if (options_.backend == nullptr) {
    return std::shared_ptr<Backend::AnswerCursor>();
  }
  // The shared gate pins the epoch across the open: no delta can commit
  // between reading epoch_ and the backend pinning its read snapshot,
  // so the cursor's snapshot IS *epoch_out.
  std::shared_lock<WriterPriorityGate> lock(epoch_mu_);
  if (defunct_.load(std::memory_order_relaxed)) {
    return Status::NotFound("database was dropped");
  }
  if (epoch_out != nullptr) {
    *epoch_out = epoch_.load(std::memory_order_relaxed);
  }
  return options_.backend->OpenAnswerCursor(*plan, deadline);
}

namespace {

/// The atom of q whose variables include every free variable, the one
/// with the fewest facts in `index` when several do; null when none does.
const Atom* CoveringAtom(const FactIndex& index, const Query& q,
                         const std::vector<SymbolId>& free_vars) {
  const Atom* best = nullptr;
  for (const Atom& atom : q.atoms()) {
    const std::vector<Term>& terms = atom.terms();
    bool covers = std::all_of(free_vars.begin(), free_vars.end(),
                              [&](SymbolId v) {
                                return std::find(terms.begin(), terms.end(),
                                                 Term::Var(v)) != terms.end();
                              });
    if (covers && (best == nullptr ||
                   index.Facts(atom.relation()).size() <
                       index.Facts(best->relation()).size())) {
      best = &atom;
    }
  }
  return best;
}

/// A reach refresh costs about one seeded decision per reached row; a
/// full recompute one decision per candidate. In BM_Session_ReachRule the
/// two meet at two fifths to a half of the rows a recompute decides, so
/// the reach rule keeps a refresh incremental up to a third of them (or
/// max_dirty_patterns, if more).
constexpr size_t kFullRowsPerReachRow = 3;

/// Whether some variable is in both sets.
bool SharesVariable(const VarSet& a, const VarSet& b) {
  return std::any_of(a.begin(), a.end(),
                     [&](SymbolId v) { return b.count(v) != 0; });
}

/// The atoms of q over relations outside `touched`, when their variables
/// cover every free variable; nullopt otherwise.
std::optional<std::vector<Atom>> UntouchedCover(
    const Query& q, const std::vector<SymbolId>& free_vars,
    const std::unordered_set<SymbolId>& touched) {
  std::vector<Atom> untouched;
  VarSet covered;
  for (const Atom& atom : q.atoms()) {
    if (touched.count(atom.relation()) != 0) continue;
    untouched.push_back(atom);
    VarSet vars = atom.Vars();
    covered.insert(vars.begin(), vars.end());
  }
  for (SymbolId v : free_vars) {
    if (covered.count(v) == 0) return std::nullopt;
  }
  return untouched;
}

/// The rows the changed `blocks` can reach through `untouched` (the
/// atoms UntouchedCover found), sorted and distinct. For each atom A of q
/// over a block's relation whose key pins no free variable (a pinned
/// atom's rows are its partial patterns'), they are π_free of the
/// embeddings of the components of `untouched` that share a variable
/// with A's key, seeded with A's key bound to the block's key (constants
/// and repeated key variables checked). A component that shares none
/// embeds independently of the block: without a free variable it can
/// only filter rows out and is left out, but with one the rows would be
/// a cross product with all of its projections, so the result is nullopt
/// (recompute in full), as it is once the rows pass `max_rows`.
Result<std::optional<Session::RowSet>> ReachedRows(
    const FactIndex& index, const Query& q,
    const std::vector<Atom>& untouched,
    const std::vector<SymbolId>& free_vars,
    const std::vector<std::pair<SymbolId, std::vector<SymbolId>>>& blocks,
    size_t max_rows, const Deadline& deadline) {
  using Rows = std::optional<Session::RowSet>;
  const VarSet free(free_vars.begin(), free_vars.end());
  // component[i]: the first atom of untouched[i]'s component, where atoms
  // sharing a variable share a component.
  const size_t n = untouched.size();
  std::vector<VarSet> vars;
  vars.reserve(n);
  for (const Atom& atom : untouched) vars.push_back(atom.Vars());
  std::vector<size_t> component(n, n);
  for (size_t i = 0; i < n; ++i) {
    if (component[i] != n) continue;
    component[i] = i;
    std::vector<size_t> stack = {i};
    while (!stack.empty()) {
      size_t a = stack.back();
      stack.pop_back();
      for (size_t b = 0; b < n; ++b) {
        if (component[b] == n && SharesVariable(vars[a], vars[b])) {
          component[b] = i;
          stack.push_back(b);
        }
      }
    }
  }
  Session::RowSet rows;
  for (const Atom& atom : q.atoms()) {
    VarSet key_vars;
    for (int i = 0; i < atom.key_arity(); ++i) {
      if (atom.terms()[i].is_var()) key_vars.insert(atom.terms()[i].id());
    }
    if (SharesVariable(key_vars, free)) continue;
    std::vector<Valuation> seeds;
    for (const auto& [relation, key] : blocks) {
      if (atom.relation() != relation ||
          atom.key_arity() != static_cast<int>(key.size())) {
        continue;
      }
      Valuation seed;
      bool consistent = true;
      for (size_t i = 0; i < key.size() && consistent; ++i) {
        const Term& t = atom.terms()[i];
        consistent =
            t.is_const() ? t.id() == key[i] : seed.Bind(t.id(), key[i]);
      }
      if (consistent) seeds.push_back(std::move(seed));
    }
    if (seeds.empty()) continue;
    std::vector<bool> seeded(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (SharesVariable(vars[i], key_vars)) seeded[component[i]] = true;
    }
    std::vector<Atom> reach;
    for (size_t i = 0; i < n; ++i) {
      if (seeded[component[i]]) {
        reach.push_back(untouched[i]);
      } else if (SharesVariable(vars[i], free)) {
        return Rows();
      }
    }
    Result<Rows> part = EnumerateProjectionsAtMost(
        index, Query(std::move(reach)), seeds, free_vars, max_rows, deadline);
    if (!part.ok()) return part.status();
    if (!part->has_value()) return Rows();
    rows.insert(rows.end(), std::make_move_iterator((*part)->begin()),
                std::make_move_iterator((*part)->end()));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (rows.size() > max_rows) return Rows();
  return Rows(std::move(rows));
}

}  // namespace

Result<RowBlock> Session::ComputeCertainFull(
    EvalContext& ctx, const Query& q,
    const std::vector<SymbolId>& free_vars, const QueryPlan& plan,
    std::optional<size_t> previous_rows, const Deadline& deadline,
    size_t* decided) {
  *decided = 0;
  if (free_vars.empty()) {
    // Boolean: the entry holds the empty row iff q is certain. A certain
    // q is possible (every database has a repair, and a query that holds
    // in a subset holds in the whole), so the decision alone settles it.
    Result<SolveOutcome> solved = SolvePlanRouted(ctx, plan, deadline);
    if (!solved.ok()) return solved.status();
    RowBlock out(0);
    if (solved->certain) out.Append({});
    return out;
  }
  if (options_.backend != nullptr) {
    // Pushdown: one SQL statement computes the whole contract of this
    // function (candidates filtered by the rewriting, sorted). A decline
    // (nullopt) falls through to the in-memory path below.
    Result<std::optional<RowSet>> pushed =
        options_.backend->CertainAnswerSet(plan, deadline);
    if (!pushed.ok()) return pushed.status();
    if (pushed->has_value()) {
      *decided = (*pushed)->size();
      return RowBlock(free_vars.size(), **pushed);
    }
  }
  // Candidates from one covering atom instead of the join, under the
  // conditions and the 1.5x rule the declaration states. A one-atom q
  // has no join to skip.
  const Atom* cover = nullptr;
  if (q.atoms().size() > 1 && previous_rows.has_value() &&
      plan.DecidesRowsByProgram()) {
    cover = CoveringAtom(ctx.fact_index(), q, free_vars);
    if (cover != nullptr &&
        2 * ctx.fact_index().Facts(cover->relation()).size() >
            3 * *previous_rows) {
      cover = nullptr;
    }
  }
  Query covering;
  if (cover != nullptr) covering = Query({*cover});
  Result<RowSet> candidates = EnumerateProjections(
      ctx.fact_index(), cover != nullptr ? covering : q, {Valuation()},
      free_vars, deadline);
  if (!candidates.ok()) return candidates.status();
  RowBlock out(free_vars.size());
  // One set-at-a-time execution decides every candidate row —
  // partitioned across the pool's workers when the batch is large
  // enough (DecideRows), on this worker's alone otherwise.
  Result<std::vector<char>> certain =
      DecideRows(ctx, plan, *candidates, deadline);
  if (!certain.ok()) return certain.status();
  for (size_t i = 0; i < candidates->size(); ++i) {
    if ((*certain)[i]) out.Append((*candidates)[i]);
  }
  *decided = candidates->size();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.rows_decided += candidates->size();
    if (cover != nullptr) ++stats_.answers_covered;
  }
  return out;
}

Result<std::optional<std::vector<RowPattern>>> Session::DirtyPatternsSince(
    EvalContext& ctx, uint64_t from_epoch, const QueryPlan& plan,
    const Query& q, const std::vector<SymbolId>& free_vars,
    size_t full_rows, const Deadline& deadline) const {
  using Patterns = std::optional<std::vector<RowPattern>>;
  // Reads delta_log_ under the shared epoch lock held by the caller
  // (the log only mutates under the exclusive lock).
  uint64_t now = epoch_.load(std::memory_order_relaxed);
  if (from_epoch == now) return Patterns(std::vector<RowPattern>{});
  if (delta_log_.empty() || delta_log_.front().epoch > from_epoch + 1) {
    return Patterns();  // The log no longer covers the entry's epoch.
  }
  std::vector<RowPattern> out;
  std::unordered_set<SymbolId> touched;
  // Changed blocks matching a pattern that pins no free variable.
  std::vector<std::pair<SymbolId, std::vector<SymbolId>>> unpinned;
  for (const DeltaRecord& record : delta_log_) {
    if (record.epoch <= from_epoch) continue;
    for (const auto& block : record.blocks) {
      const auto& [relation, key] = block;
      touched.insert(relation);
      for (const AtomKeyPattern& pattern : plan.key_patterns()) {
        if (pattern.relation != relation ||
            pattern.key.size() != key.size()) {
          continue;
        }
        RowPattern dirty;
        bool matches = true;
        for (size_t i = 0; i < key.size() && matches; ++i) {
          const AtomKeyPattern::Slot& slot = pattern.key[i];
          switch (slot.kind) {
            case AtomKeyPattern::Slot::Kind::kConstant:
              matches = slot.constant == key[i];
              break;
            case AtomKeyPattern::Slot::Kind::kParam: {
              bool bound = false;
              for (const auto& [param, value] : dirty.bindings) {
                if (param == slot.param) {
                  bound = true;
                  matches = value == key[i];
                }
              }
              if (!bound) dirty.bindings.emplace_back(slot.param, key[i]);
              break;
            }
            case AtomKeyPattern::Slot::Kind::kWildcard:
              break;
          }
        }
        if (!matches) continue;
        if (dirty.bindings.empty()) {
          // A Boolean entry has nothing to narrow: any match dirties it.
          if (free_vars.empty()) return Patterns();
          unpinned.push_back(block);
          continue;
        }
        std::sort(dirty.bindings.begin(), dirty.bindings.end());
        out.push_back(std::move(dirty));
      }
    }
  }
  // A block changed by several deltas of the range adds its patterns
  // once per delta; the bound counts distinct patterns.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > options_.max_dirty_patterns) return Patterns();
  if (!unpinned.empty()) {
    // The reach rule: the rows the unpinned blocks reach through the
    // atoms no delta in the range touched, as full-row patterns.
    std::optional<std::vector<Atom>> untouched =
        UntouchedCover(q, free_vars, touched);
    if (!untouched.has_value()) return Patterns();
    std::sort(unpinned.begin(), unpinned.end());
    unpinned.erase(std::unique(unpinned.begin(), unpinned.end()),
                   unpinned.end());
    Result<std::optional<RowSet>> reached = ReachedRows(
        ctx.fact_index(), q, *untouched, free_vars, unpinned,
        std::max(options_.max_dirty_patterns - out.size(),
                 full_rows / kFullRowsPerReachRow),
        deadline);
    if (!reached.ok()) return reached.status();
    if (!reached->has_value()) return Patterns();
    for (const std::vector<SymbolId>& row : **reached) {
      RowPattern dirty;
      dirty.bindings.reserve(row.size());
      for (size_t c = 0; c < row.size(); ++c) {
        dirty.bindings.emplace_back(static_cast<int>(c), row[c]);
      }
      out.push_back(std::move(dirty));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return Patterns(std::move(out));
}

Result<std::shared_ptr<const RowBlock>> Session::ServeCertain(
    EvalContext& ctx, const std::shared_ptr<const QueryPlan>& plan,
    const Query& q, const std::vector<SymbolId>& free_vars,
    const Deadline& deadline) {
  // The request's one admission: a SQLite-only tenant over its resident
  // budget refuses plans it cannot push down instead of silently serving
  // them from RAM.
  CQA_RETURN_NOT_OK(AdmitPlan(*plan));
  const std::string& key = plan->cache_key();
  uint64_t now = epoch_.load(std::memory_order_relaxed);

  // The snapshot is shared with the cache entry — no row copy on this
  // read, nor on the cache-hit return below.
  std::optional<CacheEntry> cached;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = answers_.find(key);
    if (it != answers_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      cached = it->second;
    }
  }
  if (cached.has_value() && cached->epoch == now) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.answers_cached;
    return cached->rows;
  }

  std::shared_ptr<const RowBlock> snapshot;
  std::optional<size_t> full_rows;
  if (cached.has_value()) {
    Result<std::optional<std::vector<RowPattern>>> patterns =
        DirtyPatternsSince(ctx, cached->epoch, *plan, q, free_vars,
                           cached->full_rows, deadline);
    if (!patterns.ok()) return patterns.status();
    if (patterns->has_value() && (*patterns)->empty()) {
      // No changed block reaches the entry: the snapshot stands.
      snapshot = cached->rows;
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.answers_incremental;
    } else if (patterns->has_value()) {
      const std::vector<RowPattern>& dirty = **patterns;
      // Dirty candidates: the possible rows matching a pattern, found
      // by seeding the matcher with each pattern's values (dropped
      // cached rows that are no longer possible never re-enter).
      std::vector<Valuation> seeds(dirty.size());
      for (size_t p = 0; p < dirty.size(); ++p) {
        for (const auto& [param, value] : dirty[p].bindings) {
          seeds[p].Bind(free_vars[param], value);
        }
      }
      Result<RowSet> candidates = EnumerateProjections(
          ctx.fact_index(), q, seeds, free_vars, deadline);
      if (!candidates.ok()) return candidates.status();
      // One batched execution re-decides every dirty row, partitioned
      // across the pool when the dirty set is large enough.
      Result<std::vector<char>> certain =
          DecideRows(ctx, *plan, *candidates, deadline);
      if (!certain.ok()) return certain.status();
      RowBlock decided(free_vars.size());
      for (size_t i = 0; i < candidates->size(); ++i) {
        if ((*certain)[i]) decided.Append((*candidates)[i]);
      }
      // Every decided row matches a pattern and no kept row does, so the
      // refresh can splice them into the cached rows.
      size_t reused = 0;
      snapshot = std::make_shared<const RowBlock>(
          RowBlock::Refresh(*cached->rows, dirty, decided, &reused));
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.answers_incremental;
      stats_.rows_reused += reused;
      stats_.rows_decided += candidates->size();
    }
  }

  if (snapshot == nullptr) {
    std::optional<size_t> previous_rows;
    if (cached.has_value()) previous_rows = cached->rows->size();
    size_t decided = 0;
    Result<RowBlock> full = ComputeCertainFull(
        ctx, q, free_vars, *plan, previous_rows, deadline, &decided);
    if (!full.ok()) return full.status();
    snapshot = std::make_shared<const RowBlock>(*std::move(full));
    full_rows = decided;
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.answers_full;
  }

  if (options_.answer_cache_capacity > 0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = answers_.find(key);
    if (it != answers_.end()) {
      // Keep the freshest result (a concurrent worker may have stored
      // the same epoch already; both computed identical rows). The old
      // snapshot stays alive for whoever holds it.
      if (it->second.epoch <= now) {
        it->second.epoch = now;
        it->second.rows = snapshot;
        if (full_rows.has_value()) it->second.full_rows = *full_rows;
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    } else {
      lru_.push_front(key);
      CacheEntry entry;
      entry.epoch = now;
      entry.rows = snapshot;
      // A refresh of an entry evicted meanwhile keeps the bound it read.
      entry.full_rows = full_rows.value_or(cached.has_value()
                                                ? cached->full_rows
                                                : snapshot->size());
      entry.lru_pos = lru_.begin();
      answers_.emplace(key, std::move(entry));
      while (answers_.size() > options_.answer_cache_capacity) {
        answers_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  }
  return snapshot;
}

}  // namespace cqa
