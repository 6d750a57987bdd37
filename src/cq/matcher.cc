#include "cq/matcher.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

namespace cqa {

// ---------------------------------------------------------- FactIndex

FactIndex::FactIndex(const Database& db) {
  for (const Fact& f : db.facts()) Add(&f);
}

FactIndex::FactIndex(const Repair& repair) {
  for (const Fact* f : repair) Add(f);
}

void FactIndex::Add(const Fact* fact) {
  Relation& rel = rels_[fact->relation()];
  if (rel.slots_built) rel.slot.emplace(fact, rel.facts.size());
  rel.facts.push_back(fact);
  // Keep already-built lazy indexes coherent.
  for (auto& [pos, buckets] : rel.by_position) {
    if (pos < fact->arity()) buckets[fact->values()[pos]].push_back(fact);
  }
  for (auto& [len, buckets] : rel.by_prefix) {
    if (len <= fact->arity()) {
      std::vector<SymbolId> prefix(fact->values().begin(),
                                   fact->values().begin() + len);
      buckets[std::move(prefix)].push_back(fact);
    }
  }
  if (counts_built_) ++fact_counts_[*fact];
  ++total_;
}

bool FactIndex::Contains(const Fact& fact) const {
  if (!counts_built_) {
    counts_built_ = true;
    fact_counts_.clear();
    for (const auto& [relation, rel] : rels_) {
      for (const Fact* f : rel.facts) ++fact_counts_[*f];
    }
  }
  return fact_counts_.find(fact) != fact_counts_.end();
}

void FactIndex::DropFromBucket(Bucket* bucket, const Fact* fact) {
  auto it = std::find(bucket->begin(), bucket->end(), fact);
  if (it != bucket->end()) {
    *it = bucket->back();
    bucket->pop_back();
  }
}

void FactIndex::Remove(const Fact* fact) {
  auto rel_it = rels_.find(fact->relation());
  if (rel_it == rels_.end()) return;
  Relation& rel = rel_it->second;
  if (!rel.slots_built) {
    rel.slots_built = true;
    rel.slot.clear();
    for (size_t i = 0; i < rel.facts.size(); ++i) {
      rel.slot.emplace(rel.facts[i], i);
    }
  }
  auto slot_it = rel.slot.find(fact);
  if (slot_it == rel.slot.end()) return;
  // Swap-with-last removal from the fact list.
  size_t slot = slot_it->second;
  rel.slot.erase(slot_it);
  if (slot + 1 != rel.facts.size()) {
    rel.facts[slot] = rel.facts.back();
    rel.slot[rel.facts[slot]] = slot;
  }
  rel.facts.pop_back();
  for (auto& [pos, buckets] : rel.by_position) {
    if (pos >= fact->arity()) continue;
    auto it = buckets.find(fact->values()[pos]);
    if (it != buckets.end()) DropFromBucket(&it->second, fact);
  }
  for (auto& [len, buckets] : rel.by_prefix) {
    if (len > fact->arity()) continue;
    std::vector<SymbolId> prefix(fact->values().begin(),
                                 fact->values().begin() + len);
    auto it = buckets.find(prefix);
    if (it != buckets.end()) DropFromBucket(&it->second, fact);
  }
  if (counts_built_) {
    auto count_it = fact_counts_.find(*fact);
    if (count_it != fact_counts_.end() && --count_it->second == 0) {
      fact_counts_.erase(count_it);
    }
  }
  --total_;
}

void FactIndex::SwapFact(const Fact* old_fact, const Fact* new_fact) {
  if (old_fact == new_fact) return;
  Remove(old_fact);
  Add(new_fact);
}

const FactIndex::Relation* FactIndex::FindRelation(SymbolId relation) const {
  auto it = rels_.find(relation);
  return it == rels_.end() ? nullptr : &it->second;
}

namespace {
const std::vector<const Fact*> kEmptyBucket;
}  // namespace

const std::vector<const Fact*>& FactIndex::Facts(SymbolId relation) const {
  const Relation* rel = FindRelation(relation);
  return rel == nullptr ? kEmptyBucket : rel->facts;
}

const std::vector<const Fact*>& FactIndex::FactsAt(SymbolId relation,
                                                   int position,
                                                   SymbolId value) const {
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr) return kEmptyBucket;
  auto [pos_it, fresh] = rel->by_position.try_emplace(position);
  if (fresh) {
    for (const Fact* f : rel->facts) {
      if (position < f->arity()) {
        pos_it->second[f->values()[position]].push_back(f);
      }
    }
  }
  auto it = pos_it->second.find(value);
  return it == pos_it->second.end() ? kEmptyBucket : it->second;
}

const std::vector<const Fact*>& FactIndex::FactsWithKeyPrefix(
    SymbolId relation, const std::vector<SymbolId>& prefix) const {
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr) return kEmptyBucket;
  int len = static_cast<int>(prefix.size());
  auto [len_it, fresh] = rel->by_prefix.try_emplace(len);
  if (fresh) {
    for (const Fact* f : rel->facts) {
      if (len <= f->arity()) {
        std::vector<SymbolId> p(f->values().begin(),
                                f->values().begin() + len);
        len_it->second[std::move(p)].push_back(f);
      }
    }
  }
  auto it = len_it->second.find(prefix);
  return it == len_it->second.end() ? kEmptyBucket : it->second;
}

// ------------------------------------------------------------ matching

namespace {

/// Attempts to extend `val` so that θ(atom) == fact; records newly bound
/// variables in `bound` for backtracking. Returns false on mismatch (and
/// rolls back its own bindings).
bool Unify(const Atom& atom, const Fact& fact, Valuation* val,
           std::vector<SymbolId>* bound) {
  size_t bound_before = bound->size();
  for (int i = 0; i < atom.arity(); ++i) {
    const Term& t = atom.terms()[i];
    SymbolId v = fact.values()[i];
    if (t.is_const()) {
      if (t.id() == v) continue;
    } else {
      auto existing = val->Get(t.id());
      if (!existing.has_value()) {
        val->Bind(t.id(), v);
        bound->push_back(t.id());
        continue;
      }
      if (*existing == v) continue;
    }
    // Mismatch: roll back.
    while (bound->size() > bound_before) {
      val->Unbind(bound->back());
      bound->pop_back();
    }
    return false;
  }
  return true;
}

/// Resolves `t` to a constant under `val` (identity on constants).
bool ResolveTerm(const Term& t, const Valuation& val, SymbolId* out) {
  std::optional<SymbolId> v = val.Resolve(t);
  if (!v.has_value()) return false;
  *out = *v;
  return true;
}

/// The smallest candidate set the indexes offer for `atom` under `val`:
/// the key-prefix bucket when every key position is resolved, else the
/// best single-position bucket over resolved positions, else the whole
/// relation. Returned buckets are stable for the duration of a search
/// (lazy builds only create new map entries).
const std::vector<const Fact*>* CandidatesFor(
    const FactIndex& index, const Atom& atom, const Valuation& val,
    std::vector<SymbolId>* prefix_buf) {
  const std::vector<const Fact*>* best = &index.Facts(atom.relation());
  // A length-1 key prefix is the same bucket as position 0, which the
  // single-position probes below find without hashing a vector.
  if (atom.key_arity() >= 2 && !best->empty()) {
    prefix_buf->clear();
    bool all_key_bound = true;
    for (int i = 0; i < atom.key_arity() && all_key_bound; ++i) {
      SymbolId v;
      if (ResolveTerm(atom.terms()[i], val, &v)) {
        prefix_buf->push_back(v);
      } else {
        all_key_bound = false;
      }
    }
    if (all_key_bound) {
      const auto& block =
          index.FactsWithKeyPrefix(atom.relation(), *prefix_buf);
      if (block.size() < best->size()) best = &block;
    }
  }
  for (int i = 0; i < atom.arity() && best->size() > 1; ++i) {
    SymbolId v;
    if (!ResolveTerm(atom.terms()[i], val, &v)) continue;
    const auto& bucket = index.FactsAt(atom.relation(), i, v);
    if (bucket.size() < best->size()) best = &bucket;
  }
  return best;
}

/// Facts a search reads between deadline polls, the FO program's row
/// cadence.
constexpr int kDeadlineCheckFacts = 256;

/// A deadline polled every kDeadlineCheckFacts facts read, matched or
/// not, across every search it is passed to: a search that finds no
/// embedding, or many short seeded searches, still notice expiry.
struct DeadlinePoll {
  const Deadline& deadline;
  int countdown = kDeadlineCheckFacts;
  bool expired = false;

  /// Counts one fact read; false once the deadline has expired.
  bool ReadOne() {
    if (--countdown == 0) {
      countdown = kDeadlineCheckFacts;
      expired = deadline.Expired();
    }
    return !expired;
  }
};

struct SearchState {
  const FactIndex& index;
  /// Atoms in q.atoms() order; `chosen` is aligned with it.
  std::vector<const Atom*> atoms;
  std::vector<bool> used;
  /// Static order (atom indices) for the naive mode.
  std::vector<int> order;
  const EmbeddingFactsFn& fn;
  Valuation val;
  std::vector<const Fact*> chosen;
  std::vector<SymbolId> prefix_buf;
  bool completed = true;
  /// Counts every fact read when set; its expiry stops the search.
  DeadlinePoll* poll = nullptr;
};

/// False once `st`'s deadline poll has seen expiry; counts one fact read.
bool ReadOne(SearchState* st) {
  if (st->poll == nullptr || st->poll->ReadOne()) return true;
  st->completed = false;
  return false;
}

/// Depth-first search with dynamic atom ordering: at every node, match
/// the unused atom with the fewest index candidates under the current
/// partial valuation. Returns false to abort the whole enumeration.
bool SearchIndexed(SearchState* st, size_t remaining) {
  if (remaining == 0) {
    if (!st->fn(st->val, st->chosen)) {
      st->completed = false;
      return false;
    }
    return true;
  }
  int best = -1;
  const std::vector<const Fact*>* best_cands = nullptr;
  for (size_t i = 0; i < st->atoms.size(); ++i) {
    if (st->used[i]) continue;
    const std::vector<const Fact*>* cands =
        CandidatesFor(st->index, *st->atoms[i], st->val, &st->prefix_buf);
    if (cands->empty()) return true;  // Dead branch: backtrack.
    if (best_cands == nullptr || cands->size() < best_cands->size()) {
      best = static_cast<int>(i);
      best_cands = cands;
      if (best_cands->size() == 1) break;
    }
  }
  const Atom& atom = *st->atoms[best];
  st->used[best] = true;
  bool keep_going = true;
  std::vector<SymbolId> bound;
  for (const Fact* fact : *best_cands) {
    if (!ReadOne(st)) {
      keep_going = false;
      break;
    }
    if (fact->arity() != atom.arity()) continue;
    bound.clear();
    if (!Unify(atom, *fact, &st->val, &bound)) continue;
    st->chosen[best] = fact;
    keep_going = SearchIndexed(st, remaining - 1);
    // Reverse order: each Unbind is then a pop from the valuation tail.
    for (size_t bi = bound.size(); bi > 0; --bi) {
      st->val.Unbind(bound[bi - 1]);
    }
    if (!keep_going) break;
  }
  st->used[best] = false;
  return keep_going;
}

/// The retained pre-index matcher: static selectivity order, full
/// relation scans. Differential-testing oracle for SearchIndexed.
bool SearchNaive(SearchState* st, size_t depth) {
  if (depth == st->order.size()) {
    if (!st->fn(st->val, st->chosen)) {
      st->completed = false;
      return false;
    }
    return true;
  }
  int ai = st->order[depth];
  const Atom& atom = *st->atoms[ai];
  for (const Fact* fact : st->index.Facts(atom.relation())) {
    if (!ReadOne(st)) return false;
    if (fact->arity() != atom.arity()) continue;
    std::vector<SymbolId> bound;
    if (!Unify(atom, *fact, &st->val, &bound)) continue;
    st->chosen[ai] = fact;
    bool keep_going = SearchNaive(st, depth + 1);
    for (size_t bi = bound.size(); bi > 0; --bi) {
      st->val.Unbind(bound[bi - 1]);
    }
    if (!keep_going) return false;
  }
  return true;
}

/// Calls `fn` on every embedding of q extending `initial` until it
/// returns false. `poll`, when set, counts every fact read and stops the
/// search once its deadline has expired. False when stopped early.
bool RunSearch(const FactIndex& index, const Query& q,
               const Valuation& initial, const EmbeddingFactsFn& fn,
               MatcherMode mode, DeadlinePoll* poll = nullptr) {
  size_t n = q.atoms().size();
  std::vector<const Atom*> atoms;
  atoms.reserve(n);
  for (const Atom& a : q.atoms()) atoms.push_back(&a);
  SearchState st{index,
                 std::move(atoms),
                 std::vector<bool>(n, false),
                 {},
                 fn,
                 initial,
                 std::vector<const Fact*>(n, nullptr),
                 {},
                 true,
                 poll};
  if (mode == MatcherMode::kNaive) {
    // Static order by selectivity: fewest candidate facts first.
    st.order.resize(n);
    for (size_t i = 0; i < n; ++i) st.order[i] = static_cast<int>(i);
    std::stable_sort(st.order.begin(), st.order.end(),
                     [&](int a, int b) {
                       return index.Facts(st.atoms[a]->relation()).size() <
                              index.Facts(st.atoms[b]->relation()).size();
                     });
    SearchNaive(&st, 0);
  } else {
    SearchIndexed(&st, n);
  }
  return st.completed;
}

}  // namespace

bool ForEachEmbedding(const FactIndex& index, const Query& q,
                      const Valuation& initial,
                      const std::function<bool(const Valuation&)>& fn,
                      MatcherMode mode) {
  EmbeddingFactsFn wrapped = [&fn](const Valuation& val,
                                   const std::vector<const Fact*>&) {
    return fn(val);
  };
  return RunSearch(index, q, initial, wrapped, mode);
}

bool ForEachEmbeddingFacts(const FactIndex& index, const Query& q,
                           const Valuation& initial,
                           const EmbeddingFactsFn& fn) {
  return RunSearch(index, q, initial, fn, MatcherMode::kIndexed);
}

bool SatisfiesWith(const FactIndex& index, const Query& q,
                   const Valuation& initial) {
  bool found = false;
  ForEachEmbedding(index, q, initial, [&](const Valuation&) {
    found = true;
    return false;  // Stop at the first embedding.
  });
  return found;
}

bool Satisfies(const FactIndex& index, const Query& q) {
  return SatisfiesWith(index, q, Valuation());
}

namespace {

/// Below this many values the projection buffer keeps its duplicates
/// until the final sort.
constexpr size_t kCompactMinValues = size_t{1} << 20;

/// Sorts the `width`-wide rows laid end to end in `flat`
/// lexicographically and drops repeated rows, in place. The sort is an
/// LSD radix sort: one stable counting pass per byte, from the last
/// column's low byte to the first column's high byte, moving whole rows
/// and comparing none.
void SortDistinctRows(size_t width, std::vector<SymbolId>* flat) {
  const size_t n = flat->size() / width;
  std::vector<SymbolId> moved(flat->size());
  for (size_t col = width; col-- > 0;) {
    for (int shift = 0; shift < 32; shift += 8) {
      auto digit = [&](size_t row) {
        return ((*flat)[row * width + col] >> shift) & 0xff;
      };
      std::array<size_t, 257> start{};
      for (size_t i = 0; i < n; ++i) ++start[digit(i) + 1];
      // A byte every row shares leaves the order as it is.
      if (std::find(start.begin(), start.end(), n) != start.end()) continue;
      std::partial_sum(start.begin(), start.end(), start.begin());
      for (size_t i = 0; i < n; ++i) {
        std::copy_n(flat->begin() + i * width, width,
                    moved.begin() + start[digit(i)]++ * width);
      }
      flat->swap(moved);
    }
  }
  // Equal rows are adjacent now; keep the first of each run.
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const SymbolId* row = flat->data() + i * width;
    SymbolId* out = flat->data() + kept * width;
    if (kept > 0 && std::equal(row, row + width, out - width)) continue;
    if (kept != i) std::copy(row, row + width, out);
    ++kept;
  }
  flat->resize(kept * width);
}

}  // namespace

Result<std::optional<std::vector<std::vector<SymbolId>>>>
EnumerateProjectionsAtMost(const FactIndex& index, const Query& q,
                           const std::vector<Valuation>& seeds,
                           const std::vector<SymbolId>& vars, size_t max_rows,
                           const Deadline& deadline) {
  using Rows = std::vector<std::vector<SymbolId>>;
  if (deadline.Expired()) {
    return Status::DeadlineExceeded(
        "deadline expired before candidate enumeration");
  }
  const size_t width = vars.size();
  std::vector<SymbolId> flat;
  // Buffered rows that trigger a compaction: past 2^20 values and twice
  // the distinct rows, and, under a cap, once the buffer could hold more
  // than max_rows distinct rows (at most twice the rows last kept, so a
  // compaction's cost is spread over the rows that triggered it).
  auto next_compaction = [&](size_t kept_rows) {
    size_t at = std::max(kCompactMinValues, 2 * kept_rows * width) / width;
    if (max_rows < at) at = std::max(max_rows + 1, 2 * kept_rows);
    return at;
  };
  size_t compact_at = width > 0 ? next_compaction(0) : 0;
  bool found = false;
  bool over = false;
  DeadlinePoll poll{deadline};
  EmbeddingFactsFn collect = [&](const Valuation& theta,
                                 const std::vector<const Fact*>&) {
    found = true;
    // A Boolean projection is decided by one embedding.
    if (width == 0) return false;
    // Occurrence in q guarantees every embedding binds every var.
    for (SymbolId v : vars) flat.push_back(*theta.Get(v));
    if (flat.size() / width >= compact_at) {
      SortDistinctRows(width, &flat);
      over = flat.size() / width > max_rows;
      compact_at = next_compaction(flat.size() / width);
    }
    return !over;
  };
  for (const Valuation& seed : seeds) {
    RunSearch(index, q, seed, collect, MatcherMode::kIndexed, &poll);
    if (poll.expired) {
      return Status::DeadlineExceeded(
          "deadline expired during candidate enumeration");
    }
    if (over || (found && width == 0)) break;
  }
  Rows rows;
  if (width == 0) {
    if (found) rows.emplace_back();
  } else if (!over) {
    SortDistinctRows(width, &flat);
    rows.reserve(flat.size() / width);
    for (auto it = flat.begin(); it != flat.end(); it += width) {
      rows.emplace_back(it, it + width);
    }
  }
  if (over || rows.size() > max_rows) return std::optional<Rows>();
  return std::optional<Rows>(std::move(rows));
}

Result<std::vector<std::vector<SymbolId>>> EnumerateProjections(
    const FactIndex& index, const Query& q,
    const std::vector<Valuation>& seeds, const std::vector<SymbolId>& vars,
    const Deadline& deadline) {
  Result<std::optional<std::vector<std::vector<SymbolId>>>> rows =
      EnumerateProjectionsAtMost(index, q, seeds, vars,
                                 std::numeric_limits<size_t>::max(), deadline);
  if (!rows.ok()) return rows.status();
  // No row count exceeds the largest size_t.
  return std::move(**rows);
}

std::vector<std::vector<SymbolId>> CollectProjectionsSorted(
    const FactIndex& index, const Query& q, const Valuation& initial,
    const std::vector<SymbolId>& vars) {
  // An unlimited deadline never expires, so the Result holds rows.
  return EnumerateProjections(index, q, {initial}, vars).value();
}

void CollectProjections(const FactIndex& index, const Query& q,
                        const Valuation& initial,
                        const std::vector<SymbolId>& vars,
                        std::set<std::vector<SymbolId>>* out) {
  for (std::vector<SymbolId>& row :
       CollectProjectionsSorted(index, q, initial, vars)) {
    out->insert(std::move(row));
  }
}

bool Satisfies(const Database& db, const Query& q) {
  return Satisfies(FactIndex(db), q);
}

bool Satisfies(const Repair& repair, const Query& q) {
  return Satisfies(FactIndex(repair), q);
}

}  // namespace cqa
