#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace cqa {

namespace {

/// MurmurHash3's 64-bit finalizer, truncated to 32 bits. FactHash and
/// the block hash below end in `h * 1000003 + last value`, so their low
/// bits follow the last value; the tables mask by a power of two, so
/// every bit must be mixed into the low ones first.
uint32_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

/// FactHash of the fact (relation, values[0..arity)), mixed.
uint32_t HashValues(SymbolId relation, const SymbolId* values,
                    size_t arity) {
  size_t h = std::hash<uint32_t>()(relation);
  for (size_t i = 0; i < arity; ++i) h = h * 1000003u + values[i];
  return Mix(h);
}

uint32_t HashFact(const Fact& fact) {
  return HashValues(fact.relation(), fact.values().data(), fact.arity());
}

uint32_t HashBlock(SymbolId relation, const SymbolId* key,
                   size_t key_arity) {
  uint64_t h = relation;
  for (size_t i = 0; i < key_arity; ++i) h = h * 1000003u + key[i];
  return Mix(h);
}

uint32_t HashBlockOf(const Fact& fact) {
  return HashBlock(fact.relation(), fact.values().data(), fact.key_arity());
}

}  // namespace

// ------------------------------------------------------------ IdTable

template <typename Eq>
int Database::IdTable::Find(uint32_t hash, const Eq& eq) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) return -1;
    if (slot.hash == hash && eq(slot.id)) return slot.id;
  }
}

void Database::IdTable::Insert(uint32_t hash, int id) {
  if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
    Rehash(slots_.empty() ? 8 : 2 * slots_.size());
  }
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != kEmpty) i = (i + 1) & mask;
  slots_[i] = Slot{id, hash};
  ++size_;
}

size_t Database::IdTable::SlotOf(uint32_t hash, int id) const {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != id) {
    assert(slots_[i].id != kEmpty);
    i = (i + 1) & mask;
  }
  return i;
}

void Database::IdTable::Erase(uint32_t hash, int id) {
  // Backward shift (Knuth's Algorithm R): walk the probe run after the
  // freed slot and move back every entry whose home slot does not lie
  // cyclically in (hole, j], so that no lookup ever crosses an empty
  // slot before reaching its entry.
  const size_t mask = slots_.size() - 1;
  size_t hole = SlotOf(hash, id);
  for (size_t j = (hole + 1) & mask; slots_[j].id != kEmpty;
       j = (j + 1) & mask) {
    size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].id = kEmpty;
  --size_;
}

void Database::IdTable::Repoint(uint32_t hash, int from, int to) {
  slots_[SlotOf(hash, from)].id = to;
}

void Database::IdTable::Reserve(size_t n) {
  size_t capacity = slots_.empty() ? 8 : slots_.size();
  while (n * kMaxLoadDen > capacity * kMaxLoadNum) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

void Database::IdTable::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot());
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

// ----------------------------------------------------------- Database

int Database::FindFact(const Fact& fact, uint32_t hash) const {
  return fact_table_.Find(hash,
                          [&](int id) { return facts_[id] == fact; });
}

int Database::FindBlockId(SymbolId relation, const SymbolId* key,
                          size_t key_arity, uint32_t hash) const {
  return block_table_.Find(hash, [&](int id) {
    const Block& block = blocks_[id];
    return block.relation == relation && block.key.size() == key_arity &&
           std::equal(block.key.begin(), block.key.end(), key);
  });
}

Status Database::AddFact(const Fact& fact) {
  auto sig = schema_.Find(fact.relation());
  if (!sig.has_value()) {
    CQA_RETURN_NOT_OK(
        schema_.AddRelation(fact.relation(), fact.arity(), fact.key_arity()));
  } else if (sig->arity != fact.arity() ||
             sig->key_arity != fact.key_arity()) {
    return Status::InvalidArgument("fact " + fact.ToString() +
                                   " contradicts signature of relation '" +
                                   SymbolName(fact.relation()) + "'");
  }
  uint32_t hash = HashFact(fact);
  if (FindFact(fact, hash) >= 0) return Status::OK();
  Insert(fact, hash);
  return Status::OK();
}

void Database::Insert(const Fact& fact, uint32_t hash) {
  int fact_id = static_cast<int>(facts_.size());
  facts_.push_back(fact);
  fact_table_.Insert(hash, fact_id);
  std::vector<int>& rel_ids = by_relation_[fact.relation()];
  rel_slots_.push_back(static_cast<int>(rel_ids.size()));
  rel_ids.push_back(fact_id);

  const SymbolId* key = fact.values().data();
  size_t key_arity = fact.key_arity();
  uint32_t block_hash = HashBlock(fact.relation(), key, key_arity);
  int block_id = FindBlockId(fact.relation(), key, key_arity, block_hash);
  if (block_id < 0) {
    block_table_.Insert(block_hash, static_cast<int>(blocks_.size()));
    blocks_.push_back(Block{fact.relation(), fact.KeyValues(), {fact_id}});
  } else {
    blocks_[block_id].fact_ids.push_back(fact_id);
  }
}

namespace {

/// Swap-with-last removal of one occurrence of `value` from `ids`.
void DropId(std::vector<int>* ids, int value) {
  auto it = std::find(ids->begin(), ids->end(), value);
  assert(it != ids->end());
  *it = ids->back();
  ids->pop_back();
}

/// Replaces one occurrence of `from` by `to` in `ids`.
void ReplaceId(std::vector<int>* ids, int from, int to) {
  auto it = std::find(ids->begin(), ids->end(), from);
  assert(it != ids->end());
  *it = to;
}

}  // namespace

Status Database::RemoveFact(const Fact& fact) {
  uint32_t hash = HashFact(fact);
  int id = FindFact(fact, hash);
  if (id < 0) {
    return Status::NotFound("fact " + fact.ToString() +
                            " is not in the database");
  }
  // `fact` may alias facts_[id]; it is not read past this point, and
  // `removed` is read only before the relocation below overwrites it.
  const Fact& removed = facts_[id];
  int last = static_cast<int>(facts_.size()) - 1;

  // Detach from the block (dropping the block entirely when it empties;
  // blocks compact swap-with-last too, so block ids stay dense).
  uint32_t block_hash = HashBlockOf(removed);
  int bid = FindBlockId(removed.relation(), removed.values().data(),
                        removed.key_arity(), block_hash);
  assert(bid >= 0);
  DropId(&blocks_[bid].fact_ids, id);
  if (blocks_[bid].fact_ids.empty()) {
    block_table_.Erase(block_hash, bid);
    int last_bid = static_cast<int>(blocks_.size()) - 1;
    if (bid != last_bid) {
      const Block& tail = blocks_[last_bid];
      block_table_.Repoint(
          HashBlock(tail.relation, tail.key.data(), tail.key.size()),
          last_bid, bid);
      blocks_[bid] = std::move(blocks_[last_bid]);
    }
    blocks_.pop_back();
  }

  {
    // Detach from the per-relation id list through the slot map: O(1),
    // not a scan of the (possibly huge) relation.
    std::vector<int>& rel_ids = by_relation_[removed.relation()];
    int slot = rel_slots_[id];
    int tail_id = rel_ids.back();
    rel_ids[slot] = tail_id;
    rel_ids.pop_back();
    rel_slots_[tail_id] = slot;
  }
  fact_table_.Erase(hash, id);

  if (id != last) {
    // Relocate the last fact into the vacated slot and re-point every
    // id-bearing structure from `last` to `id`: one slot per table.
    const Fact& moved = facts_[last];
    fact_table_.Repoint(HashFact(moved), last, id);
    // The relocated fact keeps its slot in its relation's id list; only
    // the stored id changes (rel_slots_[last] is current even when the
    // detach above moved it).
    int slot = rel_slots_[last];
    by_relation_[moved.relation()][slot] = id;
    rel_slots_[id] = slot;
    int moved_bid = BlockIdOf(moved);
    assert(moved_bid >= 0);
    ReplaceId(&blocks_[moved_bid].fact_ids, last, id);
    facts_[id] = std::move(facts_[last]);
  }
  facts_.pop_back();
  rel_slots_.pop_back();
  return Status::OK();
}

const Database::Block* Database::FindBlock(
    SymbolId relation, const std::vector<SymbolId>& key) const {
  return FindBlock(relation, key.data(), key.size());
}

const Database::Block* Database::FindBlock(SymbolId relation,
                                           const SymbolId* key,
                                           size_t key_arity) const {
  int id = FindBlockId(relation, key, key_arity,
                       HashBlock(relation, key, key_arity));
  return id < 0 ? nullptr : &blocks_[id];
}

int Database::FactIdOf(const Fact* fact) const {
  int id = FactId(*fact);
  return id >= 0 && &facts_[id] == fact ? id : -1;
}

const Fact* Database::FactPtr(const Fact& fact) const {
  int id = FactId(fact);
  return id < 0 ? nullptr : &facts_[id];
}

const std::vector<int>& Database::FactsOf(SymbolId relation) const {
  static const std::vector<int> kEmpty;
  auto it = by_relation_.find(relation);
  return it == by_relation_.end() ? kEmpty : it->second;
}

const Database::Block& Database::BlockOf(const Fact& fact) const {
  int id = BlockIdOf(fact);
  assert(id >= 0);
  return blocks_[id];
}

int Database::FactId(const Fact& fact) const {
  return FindFact(fact, HashFact(fact));
}

int Database::FactId(SymbolId relation, const SymbolId* values,
                     size_t arity, int key_arity) const {
  return fact_table_.Find(
      HashValues(relation, values, arity), [&](int id) {
        const Fact& f = facts_[id];
        return f.relation() == relation && f.key_arity() == key_arity &&
               f.values().size() == arity &&
               std::equal(f.values().begin(), f.values().end(), values);
      });
}

int Database::BlockIdOf(const Fact& fact) const {
  return FindBlockId(fact.relation(), fact.values().data(),
                     fact.key_arity(), HashBlockOf(fact));
}

bool Database::IsConsistent() const {
  for (const Block& b : blocks_) {
    if (b.fact_ids.size() > 1) return false;
  }
  return true;
}

BigInt Database::RepairCount() const {
  BigIntProduct out;
  for (const Block& b : blocks_) out.Multiply(b.fact_ids.size());
  return out.Value();
}

std::vector<SymbolId> Database::ActiveDomain() const {
  std::vector<SymbolId> dom;
  for (const Fact& f : facts_) {
    dom.insert(dom.end(), f.values().begin(), f.values().end());
  }
  std::sort(dom.begin(), dom.end());
  dom.erase(std::unique(dom.begin(), dom.end()), dom.end());
  return dom;
}

Database Database::Restrict(
    const std::unordered_set<SymbolId>& relations) const {
  // Only the named relations' id lists are read; sorting the ids keeps
  // the facts' relative order, whatever order the set iterates in.
  std::vector<int> ids;
  for (SymbolId relation : relations) {
    const std::vector<int>& of = FactsOf(relation);
    ids.insert(ids.end(), of.begin(), of.end());
  }
  std::sort(ids.begin(), ids.end());
  return Subset(ids);
}

Database Database::Subset(const std::vector<int>& fact_ids) const {
  // The facts are distinct and fit the schema already, so they skip
  // AddFact's checks. Each fact opens at most one block, so both tables
  // are sized once for the facts.
  Database out(schema_);
  out.fact_table_.Reserve(fact_ids.size());
  out.block_table_.Reserve(fact_ids.size());
  out.rel_slots_.reserve(fact_ids.size());
  for (int id : fact_ids) {
    assert(!out.Contains(facts_[id]));
    out.Insert(facts_[id], HashFact(facts_[id]));
  }
  return out;
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  lines.reserve(facts_.size());
  for (const Fact& f : facts_) lines.push_back(f.ToString());
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const std::string& l : lines) os << l << "\n";
  return os.str();
}

}  // namespace cqa
