#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

namespace cqa {

Database::Database(const Database& o)
    : schema_(o.schema_),
      facts_(o.facts_),
      fact_ids_(o.fact_ids_),
      rel_slots_(o.rel_slots_),
      blocks_(o.blocks_),
      block_index_(o.block_index_),
      by_relation_(o.by_relation_) {
  ptr_ids_.reserve(facts_.size());
  for (size_t i = 0; i < facts_.size(); ++i) {
    ptr_ids_.emplace(&facts_[i], static_cast<int>(i));
  }
}

Database& Database::operator=(const Database& o) {
  if (this == &o) return *this;
  Database copy(o);
  *this = std::move(copy);
  return *this;
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
  if (Contains(fact)) return Status::OK();
  Insert(fact);
  return Status::OK();
}

void Database::Insert(const Fact& fact) {
  int fact_id = static_cast<int>(facts_.size());
  facts_.push_back(fact);
  fact_ids_.emplace(fact, fact_id);
  ptr_ids_.emplace(&facts_.back(), fact_id);
  std::vector<int>& rel_ids = by_relation_[fact.relation()];
  rel_slots_.push_back(static_cast<int>(rel_ids.size()));
  rel_ids.push_back(fact_id);

  auto block_key = std::make_pair(fact.relation(), fact.KeyValues());
  auto it = block_index_.find(block_key);
  if (it == block_index_.end()) {
    int block_id = static_cast<int>(blocks_.size());
    blocks_.push_back(Block{fact.relation(), block_key.second, {fact_id}});
    block_index_.emplace(std::move(block_key), block_id);
  } else {
    blocks_[it->second].fact_ids.push_back(fact_id);
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
  auto id_it = fact_ids_.find(fact);
  if (id_it == fact_ids_.end()) {
    return Status::NotFound("fact " + fact.ToString() +
                            " is not in the database");
  }
  // `fact` may alias storage this function is about to relocate.
  Fact removed = fact;
  int id = id_it->second;
  int last = static_cast<int>(facts_.size()) - 1;

  // Detach from the block (dropping the block entirely when it empties;
  // blocks compact swap-with-last too, so block ids stay dense).
  auto block_key = std::make_pair(removed.relation(), removed.KeyValues());
  auto block_it = block_index_.find(block_key);
  assert(block_it != block_index_.end());
  int bid = block_it->second;
  DropId(&blocks_[bid].fact_ids, id);
  if (blocks_[bid].fact_ids.empty()) {
    block_index_.erase(block_it);
    int last_bid = static_cast<int>(blocks_.size()) - 1;
    if (bid != last_bid) {
      blocks_[bid] = std::move(blocks_[last_bid]);
      block_index_[std::make_pair(blocks_[bid].relation,
                                  blocks_[bid].key)] = bid;
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
  fact_ids_.erase(id_it);
  ptr_ids_.erase(&facts_[id]);

  if (id != last) {
    // Relocate the last fact into the vacated slot and re-point every
    // id-bearing structure from `last` to `id`.
    ptr_ids_.erase(&facts_[last]);
    facts_[id] = std::move(facts_[last]);
    const Fact& moved = facts_[id];
    fact_ids_[moved] = id;
    ptr_ids_[&facts_[id]] = id;
    // The relocated fact keeps its slot in its relation's id list; only
    // the stored id changes (rel_slots_[last] is current even when the
    // detach above moved it).
    int slot = rel_slots_[last];
    by_relation_[moved.relation()][slot] = id;
    rel_slots_[id] = slot;
    auto moved_block = block_index_.find(
        std::make_pair(moved.relation(), moved.KeyValues()));
    assert(moved_block != block_index_.end());
    ReplaceId(&blocks_[moved_block->second].fact_ids, last, id);
  }
  facts_.pop_back();
  rel_slots_.pop_back();
  return Status::OK();
}

const Database::Block* Database::FindBlock(
    SymbolId relation, const std::vector<SymbolId>& key) const {
  auto it = block_index_.find(std::make_pair(relation, key));
  return it == block_index_.end() ? nullptr : &blocks_[it->second];
}

int Database::FactIdOf(const Fact* fact) const {
  auto it = ptr_ids_.find(fact);
  return it == ptr_ids_.end() ? -1 : it->second;
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
  auto it = block_index_.find(std::make_pair(fact.relation(),
                                             fact.KeyValues()));
  assert(it != block_index_.end());
  return blocks_[it->second];
}

int Database::FactId(const Fact& fact) const {
  auto it = fact_ids_.find(fact);
  return it == fact_ids_.end() ? -1 : it->second;
}

int Database::BlockIdOf(const Fact& fact) const {
  auto it = block_index_.find(std::make_pair(fact.relation(),
                                             fact.KeyValues()));
  return it == block_index_.end() ? -1 : it->second;
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
  std::set<SymbolId> dom;
  for (const Fact& f : facts_) {
    dom.insert(f.values().begin(), f.values().end());
  }
  return std::vector<SymbolId>(dom.begin(), dom.end());
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
  // AddFact's checks.
  Database out(schema_);
  out.fact_ids_.reserve(fact_ids.size());
  out.ptr_ids_.reserve(fact_ids.size());
  out.rel_slots_.reserve(fact_ids.size());
  for (int id : fact_ids) {
    assert(!out.Contains(facts_[id]));
    out.Insert(facts_[id]);
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
