#include "cq/matcher.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>

namespace cqa {

// ---------------------------------------------------------- FactIndex

namespace {

/// Fibonacci hashing: the top `bits` bits of tag * 2^64/φ, the home slot
/// of `tag` in a table of 2^bits slots (bits >= 1).
size_t Home(uint32_t tag, int bits) {
  return static_cast<size_t>((tag * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

/// The tag of a key of `len` >= 2 values: a polynomial hash, which a
/// table resolves by comparing the key itself.
uint32_t HashKey(const SymbolId* key, int len) {
  uint64_t h = key[0];
  for (int i = 1; i < len; ++i) h = h * 1000003u + key[i];
  return static_cast<uint32_t>(h ^ (h >> 32));
}

uint32_t HashAddress(const Fact* fact) {
  uint64_t a = reinterpret_cast<uintptr_t>(fact);
  return static_cast<uint32_t>(a ^ (a >> 32));
}

}  // namespace

/// Runs of fact ids by a 32-bit tag: linear probing over a power-of-two
/// slot array at most 3/4 full, on the pattern of Database::IdTable,
/// with backward-shift deletion and no tombstones. A tag is the key
/// itself when the key is one value (a position), else a hash, and then
/// the caller's `eq` compares the key against a run's first id. A run of
/// one id keeps it in its slot; longer runs lie in `ids_` with room for
/// `cap` ids each. A run that outgrows its room moves to the end of
/// `ids_` with twice the room, and once more than half of `ids_` is left
/// behind, Pack lays the runs end to end again.
class FactIndex::RunTable {
 public:
  /// The run tagged `tag` whose first id satisfies `eq`.
  template <typename Eq>
  FactRun Find(uint32_t tag, const Eq& eq) const {
    if (slots_.empty()) return FactRun();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(tag, bits_);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.size == 0) return FactRun();
      const int* run = RunOf(slot);
      if (slot.tag == tag && eq(run[0])) return FactRun(run, slot.size);
    }
  }

  /// Appends `id` to the run Find(tag, eq) names, or opens that run.
  template <typename Eq>
  void Add(uint32_t tag, int id, const Eq& eq) {
    if ((used_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? 3 : bits_ + 1);
    }
    const size_t mask = slots_.size() - 1;
    size_t i = Home(tag, bits_);
    for (; slots_[i].size != 0; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.tag != tag || !eq(RunOf(slot)[0])) continue;
      if (slot.size == std::max(slot.cap, 1)) {
        // Full: move the run to the end with twice the room.
        int32_t cap = 2 * std::max(slot.cap, 1);
        int32_t at = static_cast<int32_t>(ids_.size());
        ids_.resize(ids_.size() + cap);
        std::copy_n(RunOf(slot), slot.size, ids_.data() + at);
        stale_ += slot.cap;
        slot.cap = cap;
        slot.at = at;
      }
      RunOf(slot)[slot.size++] = id;
      if (2 * stale_ > ids_.size()) Pack(/*tight=*/false);
      return;
    }
    slots_[i] = Slot{tag, 1, 0, id};
    ++used_;
  }

  /// Drops `id` from the run holding it (tagged `tag`).
  void Remove(uint32_t tag, int id) {
    auto [i, at] = Holding(tag, id);
    Slot& slot = slots_[i];
    *at = RunOf(slot)[slot.size - 1];
    if (--slot.size > 0) return;
    // Backward shift (Knuth's Algorithm R), as in Database::IdTable.
    stale_ += slot.cap;
    const size_t mask = slots_.size() - 1;
    size_t hole = i;
    for (size_t j = (hole + 1) & mask; slots_[j].size != 0;
         j = (j + 1) & mask) {
      size_t home = Home(slots_[j].tag, bits_);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot();
    --used_;
  }

  /// The run holding `from` (tagged `tag`) holds `to` instead.
  void Renumber(uint32_t tag, int from, int to) {
    *Holding(tag, from).second = to;
  }

  /// Lays the runs end to end, dropping the room no run owns. A `tight`
  /// pack also trims each run to its ids and moves a run of one back
  /// into its slot (after a build); otherwise each run keeps its room,
  /// so a run that shrinks and grows back does not move again.
  void Pack(bool tight) {
    std::vector<int32_t> packed;
    packed.reserve(ids_.size() - stale_);
    for (Slot& slot : slots_) {
      if (slot.cap == 0) continue;
      if (tight && slot.size == 1) {
        slot.at = ids_[slot.at];
        slot.cap = 0;
        continue;
      }
      int32_t at = static_cast<int32_t>(packed.size());
      packed.insert(packed.end(), ids_.begin() + slot.at,
                    ids_.begin() + slot.at + (tight ? slot.size : slot.cap));
      slot.at = at;
      if (tight) slot.cap = slot.size;
    }
    ids_.swap(packed);
    stale_ = 0;
  }

  size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           ids_.capacity() * sizeof(int32_t);
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    int32_t size = 0;  // 0: the slot is empty.
    int32_t cap = 0;   // 0: the run's one id is `at` itself.
    int32_t at = 0;    // The id, or the run's offset in ids_.
  };

  const int* RunOf(const Slot& slot) const {
    return slot.cap == 0 ? &slot.at : ids_.data() + slot.at;
  }
  int* RunOf(Slot& slot) {
    return slot.cap == 0 ? &slot.at : ids_.data() + slot.at;
  }

  /// The slot whose run holds `id`, tagged `tag`, and the id's place in
  /// the run.
  std::pair<size_t, int*> Holding(uint32_t tag, int id) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(tag, bits_);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      assert(slot.size != 0);
      if (slot.tag != tag) continue;
      int* run = RunOf(slot);
      int* at = std::find(run, run + slot.size, id);
      if (at != run + slot.size) return {i, at};
    }
  }

  /// Grows the slot array to 2^bits slots.
  void Rehash(int bits) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(size_t{1} << bits, Slot());
    bits_ = bits;
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.size == 0) continue;
      size_t i = Home(slot.tag, bits_);
      while (slots_[i].size != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  int bits_ = 0;
  std::vector<int32_t> ids_;
  size_t used_ = 0;
  /// Entries of ids_ that no run owns.
  size_t stale_ = 0;
};

/// The runs of one key over one relation's facts: values()[offset] for a
/// position table, values()[0..length) for a prefix table. Built on the
/// first probe, once; from then on every mutation patches it.
struct FactIndex::Table {
  /// Whether `fact` is wide enough to have this table's key.
  bool Keys(const Fact& fact) const {
    return fact.arity() >= offset + length;
  }
  /// The tag of the key key[0..length).
  uint32_t TagOf(const SymbolId* key) const {
    return length == 1 ? key[0] : HashKey(key, length);
  }
  uint32_t TagOf(const Fact& fact) const {
    return TagOf(fact.values().data() + offset);
  }

  int offset = 0;
  int length = 1;
  std::once_flag once;
  std::atomic<bool> built{false};
  RunTable runs;
};

struct FactIndex::Relation {
  SymbolId id = 0;
  /// Over a database: the schema's key arity, whose prefix runs are the
  /// database's blocks. -1 in an owning index.
  int key_arity = -1;
  /// The relation's ids: the database's FactsOf list, or `own`.
  const std::vector<int>* all = nullptr;
  std::vector<int> own;
  /// One table per position in [0, arity), then one per prefix length in
  /// [2, arity] (a prefix of 0 is Facts, one of 1 is position 0), in one
  /// allocation.
  int arity = 0;
  std::unique_ptr<Table[]> tables;

  Table& Position(int p) const { return tables[p]; }
  Table& Prefix(int len) const { return tables[arity + len - 2]; }
  int TableCount() const { return arity == 0 ? 0 : 2 * arity - 1; }

  template <typename Fn>
  void ForEachBuilt(const Fn& fn) const {
    for (int i = 0; i < TableCount(); ++i) {
      if (tables[i].built.load(std::memory_order_relaxed)) fn(tables[i]);
    }
  }
};

FactIndex::FactIndex() : by_address_(std::make_unique<RunTable>()) {}

FactIndex::FactIndex(const Database& db) : db_(&db) {
  // A relation without facts (a restricted copy keeps the whole schema)
  // gets its entry from Inserted, with its first fact.
  for (SymbolId relation : db.schema().relations()) {
    if (db.FactsOf(relation).empty()) continue;
    std::optional<Signature> sig = db.schema().Find(relation);
    AddRelation(relation, sig->arity, sig->key_arity);
  }
}

FactIndex::FactIndex(const Repair& repair) : FactIndex() {
  ptrs_.reserve(repair.size());
  rel_slots_.reserve(repair.size());
  for (const Fact* f : repair) Add(f);
}

FactIndex::~FactIndex() = default;

FactIndex::Relation* FactIndex::FindRelation(SymbolId relation) const {
  if (dir_.empty()) return nullptr;
  const size_t mask = dir_.size() - 1;
  for (size_t i = Home(relation, __builtin_ctzll(dir_.size()));;
       i = (i + 1) & mask) {
    Relation* rel = dir_[i];
    if (rel == nullptr || rel->id == relation) return rel;
  }
}

FactIndex::Relation* FactIndex::AddRelation(SymbolId relation, int arity,
                                            int key_arity) {
  Relation* rel = FindRelation(relation);
  if (rel == nullptr) {
    rels_.push_back(std::make_unique<Relation>());
    rel = rels_.back().get();
    rel->id = relation;
    rel->key_arity = db_ != nullptr ? key_arity : -1;
    rel->all = db_ != nullptr ? &db_->FactsOf(relation) : &rel->own;
    // At most half full.
    if (2 * rels_.size() > dir_.size()) {
      dir_.assign(std::max<size_t>(8, 2 * dir_.size()), nullptr);
    } else {
      dir_.assign(dir_.size(), nullptr);
    }
    const size_t mask = dir_.size() - 1;
    for (const std::unique_ptr<Relation>& r : rels_) {
      size_t i = Home(r->id, __builtin_ctzll(dir_.size()));
      while (dir_[i] != nullptr) i = (i + 1) & mask;
      dir_[i] = r.get();
    }
  }
  if (arity > rel->arity) {
    // Only an owning index meets a wider fact of a known relation (a
    // database's schema fixes arities); its tables start over, unbuilt.
    assert(rel->arity == 0 || db_ == nullptr);
    rel->ForEachBuilt([&](Table& t) {
      bytes_.fetch_sub(t.runs.bytes(), std::memory_order_relaxed);
    });
    rel->arity = arity;
    rel->tables = std::make_unique<Table[]>(rel->TableCount());
    for (int p = 0; p < arity; ++p) rel->Position(p).offset = p;
    for (int len = 2; len <= arity; ++len) rel->Prefix(len).length = len;
  }
  return rel;
}

const FactIndex::RunTable& FactIndex::Built(Table& t,
                                            SymbolId relation) const {
  if (!t.built.load(std::memory_order_acquire)) {
    std::call_once(t.once, [&] {
      for (int id : Facts(relation)) {
        const Fact& f = fact(id);
        if (!t.Keys(f)) continue;
        t.runs.Add(t.TagOf(f), id, [&](int rep) {
          return KeyEqual(t, f.values().data() + t.offset, rep);
        });
      }
      t.runs.Pack(/*tight=*/true);
      bytes_.fetch_add(t.runs.bytes(), std::memory_order_relaxed);
      t.built.store(true, std::memory_order_release);
    });
  }
  return t.runs;
}

bool FactIndex::KeyEqual(const Table& table, const SymbolId* key,
                         int rep) const {
  // A one-value key is its own tag.
  if (table.length == 1) return true;
  const SymbolId* values = fact(rep).values().data() + table.offset;
  return std::equal(key, key + table.length, values);
}

FactRun FactIndex::Probe(Table& table, SymbolId relation,
                         const SymbolId* key) const {
  return Built(table, relation)
      .Find(table.TagOf(key),
            [&](int rep) { return KeyEqual(table, key, rep); });
}

FactRun FactIndex::Block(SymbolId relation, const SymbolId* key,
                         size_t key_arity) const {
  const Database::Block* block = db_->FindBlock(relation, key, key_arity);
  return block == nullptr
             ? FactRun()
             : FactRun(block->fact_ids.data(), block->fact_ids.size());
}

FactRun FactIndex::Facts(SymbolId relation) const {
  const Relation* rel = FindRelation(relation);
  return rel == nullptr ? FactRun()
                        : FactRun(rel->all->data(), rel->all->size());
}

FactRun FactIndex::FactsAt(SymbolId relation, int position,
                           SymbolId value) const {
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr ||
      position >= rel->arity) {
    return FactRun();
  }
  if (position == 0 && rel->key_arity == 1) {
    return Block(relation, &value, 1);
  }
  return Probe(rel->Position(position), relation, &value);
}

FactRun FactIndex::FactsWithKeyPrefix(SymbolId relation,
                                      const SymbolId* prefix,
                                      size_t len) const {
  if (len == 0) return Facts(relation);
  if (len == 1) return FactsAt(relation, 0, prefix[0]);
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr || static_cast<int>(len) > rel->arity) return FactRun();
  if (static_cast<int>(len) == rel->key_arity) {
    return Block(relation, prefix, len);
  }
  return Probe(rel->Prefix(static_cast<int>(len)), relation, prefix);
}

bool FactIndex::Contains(SymbolId relation, const SymbolId* values,
                         size_t arity, int key_arity) const {
  if (FindRelation(relation) == nullptr) return false;
  if (db_ != nullptr) {
    return db_->FactId(relation, values, arity, key_arity) >= 0;
  }
  // Owning: the facts of the block, compared whole.
  for (int id :
       FactsWithKeyPrefix(relation, values, static_cast<size_t>(key_arity))) {
    const Fact& f = fact(id);
    if (f.key_arity() == key_arity && f.values().size() == arity &&
        std::equal(f.values().begin(), f.values().end(), values)) {
      return true;
    }
  }
  return false;
}

size_t FactIndex::total() const {
  return db_ != nullptr ? static_cast<size_t>(db_->size()) : ptrs_.size();
}

void FactIndex::Attach(int id) {
  const Fact& f = fact(id);
  Relation* rel = FindRelation(f.relation());
  if (db_ == nullptr) {
    rel_slots_[id] = static_cast<int>(rel->own.size());
    rel->own.push_back(id);
    const Fact* address = ptrs_[id];
    by_address_->Add(HashAddress(address), id,
                     [&](int rep) { return ptrs_[rep] == address; });
  }
  rel->ForEachBuilt([&](Table& t) {
    if (t.Keys(f)) AddTo(t, id, f);
  });
}

void FactIndex::AddTo(Table& table, int id, const Fact& fact) {
  size_t before = table.runs.bytes();
  table.runs.Add(table.TagOf(fact), id, [&](int rep) {
    return KeyEqual(table, fact.values().data() + table.offset, rep);
  });
  // Only growth moves the count; most additions fit.
  if (size_t after = table.runs.bytes(); after != before) {
    bytes_.fetch_add(after - before, std::memory_order_relaxed);
  }
}

void FactIndex::Detach(int id) {
  const Fact& f = fact(id);
  Relation* rel = FindRelation(f.relation());
  if (db_ == nullptr) {
    std::vector<int>& own = rel->own;
    int slot = rel_slots_[id];
    int tail = own.back();
    own[slot] = tail;
    rel_slots_[tail] = slot;
    own.pop_back();
    by_address_->Remove(HashAddress(ptrs_[id]), id);
  }
  rel->ForEachBuilt([&](Table& t) {
    if (t.Keys(f)) t.runs.Remove(t.TagOf(f), id);
  });
}

void FactIndex::Renumber(int from, int to) {
  const Fact& f = fact(from);
  Relation* rel = FindRelation(f.relation());
  if (db_ == nullptr) {
    rel->own[rel_slots_[from]] = to;
    rel_slots_[to] = rel_slots_[from];
    by_address_->Renumber(HashAddress(ptrs_[from]), from, to);
  }
  rel->ForEachBuilt([&](Table& t) {
    if (t.Keys(f)) t.runs.Renumber(t.TagOf(f), from, to);
  });
}

int FactIndex::IdOfAddress(const Fact* fact) const {
  FactRun run = by_address_->Find(
      HashAddress(fact), [&](int rep) { return ptrs_[rep] == fact; });
  return run.empty() ? -1 : run[run.size() - 1];
}

void FactIndex::Own() {
  if (db_ == nullptr) return;
  // The ids stay the database's, so every built table stays valid.
  const int n = db_->size();
  ptrs_.reserve(n);
  for (int id = 0; id < n; ++id) ptrs_.push_back(&db_->facts()[id]);
  rel_slots_.assign(n, -1);
  for (const std::unique_ptr<Relation>& rel : rels_) {
    rel->own = *rel->all;
    rel->all = &rel->own;
    rel->key_arity = -1;
    for (size_t slot = 0; slot < rel->own.size(); ++slot) {
      rel_slots_[rel->own[slot]] = static_cast<int>(slot);
    }
  }
  by_address_ = std::make_unique<RunTable>();
  for (int id = 0; id < n; ++id) {
    const Fact* address = ptrs_[id];
    by_address_->Add(HashAddress(address), id,
                     [&](int rep) { return ptrs_[rep] == address; });
  }
  db_ = nullptr;
}

void FactIndex::Add(const Fact* fact) {
  Own();
  AddRelation(fact->relation(), fact->arity(), -1);
  ptrs_.push_back(fact);
  rel_slots_.push_back(-1);
  Attach(static_cast<int>(ptrs_.size()) - 1);
}

void FactIndex::Remove(const Fact* fact) {
  Own();
  int id = IdOfAddress(fact);
  if (id < 0) return;
  Detach(id);
  int last = static_cast<int>(ptrs_.size()) - 1;
  if (id != last) {
    Renumber(last, id);
    ptrs_[id] = ptrs_[last];
  }
  ptrs_.pop_back();
  rel_slots_.pop_back();
}

void FactIndex::SwapFact(const Fact* old_fact, const Fact* new_fact) {
  if (old_fact == new_fact) return;
  Own();
  int id = IdOfAddress(old_fact);
  if (id < 0) {
    Add(new_fact);
    return;
  }
  if (old_fact->relation() != new_fact->relation() ||
      old_fact->arity() != new_fact->arity()) {
    Detach(id);
    AddRelation(new_fact->relation(), new_fact->arity(), -1);
    ptrs_[id] = new_fact;
    Attach(id);
    return;
  }
  // One relation and arity: the id keeps its place in the relation's
  // list, and a table in which both facts have one key keeps its run
  // (within a block, every table over key positions does).
  FindRelation(new_fact->relation())->ForEachBuilt([&](Table& t) {
    const SymbolId* from = old_fact->values().data() + t.offset;
    const SymbolId* to = new_fact->values().data() + t.offset;
    if (!t.Keys(*new_fact) || std::equal(from, from + t.length, to)) return;
    t.runs.Remove(t.TagOf(from), id);
    AddTo(t, id, *new_fact);
  });
  by_address_->Remove(HashAddress(old_fact), id);
  ptrs_[id] = new_fact;
  by_address_->Add(HashAddress(new_fact), id,
                   [&](int rep) { return ptrs_[rep] == new_fact; });
}

void FactIndex::Inserted(int id) {
  assert(db_ != nullptr);
  const Fact& f = fact(id);
  Relation* rel = AddRelation(f.relation(), f.arity(), f.key_arity());
  // The database's list for a relation it had no fact of is new.
  rel->all = &db_->FactsOf(f.relation());
  Attach(id);
}

void FactIndex::Erasing(int id) {
  assert(db_ != nullptr);
  Detach(id);
  int last = db_->size() - 1;
  if (id != last) Renumber(last, id);
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

/// The smallest candidate run the index offers for `atom` under `val`:
/// the key-prefix run when every key position is resolved, else the
/// best single-position run over resolved positions, else the whole
/// relation. Runs stay valid for the duration of a search (a lazy build
/// only fills a table nobody has read yet).
FactRun CandidatesFor(const FactIndex& index, const Atom& atom,
                      const Valuation& val,
                      std::vector<SymbolId>* prefix_buf) {
  FactRun best = index.Facts(atom.relation());
  // A length-1 key prefix is the same run as position 0, which the
  // single-position probes below find.
  if (atom.key_arity() >= 2 && !best.empty()) {
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
      FactRun block = index.FactsWithKeyPrefix(atom.relation(), *prefix_buf);
      if (block.size() < best.size()) best = block;
    }
  }
  for (int i = 0; i < atom.arity() && best.size() > 1; ++i) {
    SymbolId v;
    if (!ResolveTerm(atom.terms()[i], val, &v)) continue;
    FactRun run = index.FactsAt(atom.relation(), i, v);
    if (run.size() < best.size()) best = run;
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
  std::vector<int> chosen;
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
  FactRun best_cands;
  for (size_t i = 0; i < st->atoms.size(); ++i) {
    if (st->used[i]) continue;
    FactRun cands =
        CandidatesFor(st->index, *st->atoms[i], st->val, &st->prefix_buf);
    if (cands.empty()) return true;  // Dead branch: backtrack.
    if (best < 0 || cands.size() < best_cands.size()) {
      best = static_cast<int>(i);
      best_cands = cands;
      if (best_cands.size() == 1) break;
    }
  }
  const Atom& atom = *st->atoms[best];
  st->used[best] = true;
  bool keep_going = true;
  std::vector<SymbolId> bound;
  for (int id : best_cands) {
    if (!ReadOne(st)) {
      keep_going = false;
      break;
    }
    const Fact& fact = st->index.fact(id);
    if (fact.arity() != atom.arity()) continue;
    bound.clear();
    if (!Unify(atom, fact, &st->val, &bound)) continue;
    st->chosen[best] = id;
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
  for (int id : st->index.Facts(atom.relation())) {
    if (!ReadOne(st)) return false;
    const Fact& fact = st->index.fact(id);
    if (fact.arity() != atom.arity()) continue;
    std::vector<SymbolId> bound;
    if (!Unify(atom, fact, &st->val, &bound)) continue;
    st->chosen[ai] = id;
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
                 std::vector<int>(n, -1),
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
                                   const std::vector<int>&) {
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
/// lexicographically and drops repeated rows, in place. One-column rows
/// go through std::sort and std::unique, which beat the radix sort there
/// (about 215 against 477 µs on 18,725 values). Wider rows take an LSD
/// radix sort: one stable counting pass per byte, from the last column's
/// low byte to the first column's high byte, moving whole rows and
/// comparing none.
void SortDistinctRows(size_t width, std::vector<SymbolId>* flat) {
  if (width == 1) {
    std::sort(flat->begin(), flat->end());
    flat->erase(std::unique(flat->begin(), flat->end()), flat->end());
    return;
  }
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
                                 const std::vector<int>&) {
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
