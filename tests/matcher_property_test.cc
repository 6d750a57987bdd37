#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "db/repairs.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "util/rng.h"

namespace cqa {
namespace {

/// Embeddings as canonical (sorted) binding lists, independent of the
/// order in which a matcher binds variables.
std::multiset<std::vector<std::pair<SymbolId, SymbolId>>> Embeddings(
    const FactIndex& index, const Query& q, const Valuation& initial,
    MatcherMode mode) {
  std::multiset<std::vector<std::pair<SymbolId, SymbolId>>> out;
  ForEachEmbedding(index, q, initial,
                   [&](const Valuation& theta) {
                     std::vector<std::pair<SymbolId, SymbolId>> bindings(
                         theta.entries().begin(), theta.entries().end());
                     std::sort(bindings.begin(), bindings.end());
                     out.insert(std::move(bindings));
                     return true;
                   },
                   mode);
  return out;
}

/// Checks EnumerateProjections against an independent path: for every
/// set of at most two of q's variables, its rows must be the distinct,
/// sorted projections of the naive matcher's embeddings from `seeds`.
void ExpectProjectionsAgree(const FactIndex& index, const Query& q,
                            const std::vector<Valuation>& seeds,
                            const std::string& context) {
  std::vector<Valuation> naive;
  for (const Valuation& seed : seeds) {
    ForEachEmbedding(index, q, seed,
                     [&](const Valuation& theta) {
                       naive.push_back(theta);
                       return true;
                     },
                     MatcherMode::kNaive);
  }
  VarSet var_set = q.Vars();
  std::vector<SymbolId> vars(var_set.begin(), var_set.end());
  std::vector<std::vector<SymbolId>> subsets = {{}};
  for (size_t i = 0; i < vars.size(); ++i) {
    subsets.push_back({vars[i]});
    for (size_t j = i + 1; j < vars.size(); ++j) {
      subsets.push_back({vars[i], vars[j]});
    }
  }
  for (const std::vector<SymbolId>& subset : subsets) {
    std::set<std::vector<SymbolId>> expected;
    for (const Valuation& theta : naive) {
      std::vector<SymbolId> row;
      for (SymbolId v : subset) row.push_back(*theta.Get(v));
      expected.insert(std::move(row));
    }
    Result<std::vector<std::vector<SymbolId>>> rows =
        EnumerateProjections(index, q, seeds, subset);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(*rows, std::vector<std::vector<SymbolId>>(expected.begin(),
                                                        expected.end()))
        << context << "\nquery: " << q.ToString() << "\nprojection of "
        << subset.size() << " variable(s) from " << seeds.size()
        << " seed(s)";
    // Under a cap: the same rows up to it, nullopt past it.
    const size_t distinct = expected.size();
    for (size_t max_rows : {distinct, distinct + 1, distinct / 2,
                            distinct > 0 ? distinct - 1 : 0}) {
      Result<std::optional<std::vector<std::vector<SymbolId>>>> capped =
          EnumerateProjectionsAtMost(index, q, seeds, subset, max_rows);
      ASSERT_TRUE(capped.ok()) << capped.status();
      ASSERT_EQ(capped->has_value(), distinct <= max_rows)
          << context << "\nquery: " << q.ToString() << "\ncap " << max_rows
          << " over " << distinct << " row(s)";
      if (capped->has_value()) {
        ASSERT_EQ(**capped, *rows) << context;
      }
    }
  }
}

void ExpectMatchersAgree(const Database& db, const Query& q,
                         const std::string& context) {
  FactIndex index(db);
  auto indexed = Embeddings(index, q, Valuation(), MatcherMode::kIndexed);
  auto naive = Embeddings(index, q, Valuation(), MatcherMode::kNaive);
  ASSERT_EQ(indexed, naive) << context << "\nquery: " << q.ToString()
                            << "\ndb:\n"
                            << db.ToString();
  ExpectProjectionsAgree(index, q, {Valuation()}, context);
  // Satisfies (the indexed early-exit path) must agree with whether the
  // naive search found any embedding.
  EXPECT_EQ(Satisfies(index, q), !naive.empty()) << context;
}

/// The differential property: indexed and naive matchers agree on the
/// full embedding multiset across >= 1000 random (db, query) pairs.
class MatcherDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherDifferential, RandomQueriesUniformDb) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  qopts.max_arity = 3 + static_cast<int>(seed % 2);
  qopts.constant_percent = static_cast<int>(seed % 25);
  Query q = RandomAcyclicQuery(qopts);
  DbGenOptions dopts;
  dopts.seed = seed * 31 + 7;
  dopts.domain_size = 3 + static_cast<int>(seed % 4);
  dopts.facts_per_relation = 6 + static_cast<int>(seed % 8);
  ExpectMatchersAgree(RandomDatabase(q, dopts), q, "uniform");
}

TEST_P(MatcherDifferential, RandomQueriesBlockDb) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 13 + 1;
  qopts.num_atoms = 2 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions bopts;
  bopts.seed = seed * 17 + 3;
  bopts.blocks_per_relation = 3 + static_cast<int>(seed % 3);
  bopts.max_block_size = 2 + static_cast<int>(seed % 2);
  bopts.domain_size = 3 + static_cast<int>(seed % 3);
  ExpectMatchersAgree(RandomBlockDatabase(q, bopts), q, "block");
}

TEST_P(MatcherDifferential, CorpusQueries) {
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions bopts;
    bopts.seed = GetParam() * 7 + 5;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    ExpectMatchersAgree(RandomBlockDatabase(q, bopts), q, name);
  }
}

TEST_P(MatcherDifferential, PartialInitialValuation) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 3 + 11;
  qopts.num_atoms = 3;
  Query q = RandomAcyclicQuery(qopts);
  DbGenOptions dopts;
  dopts.seed = seed * 5 + 13;
  Database db = RandomDatabase(q, dopts);
  FactIndex index(db);
  // Seed the search with one variable pinned to each constant in turn.
  VarSet vars = q.Vars();
  if (vars.empty()) return;
  SymbolId var = *vars.begin();
  std::vector<Valuation> seeds;
  for (SymbolId value : db.ActiveDomain()) {
    Valuation initial;
    initial.Bind(var, value);
    auto indexed = Embeddings(index, q, initial, MatcherMode::kIndexed);
    auto naive = Embeddings(index, q, initial, MatcherMode::kNaive);
    ASSERT_EQ(indexed, naive)
        << q.ToString() << " with " << initial.ToString() << "\n"
        << db.ToString();
    ExpectProjectionsAgree(index, q, {initial}, initial.ToString());
    seeds.push_back(std::move(initial));
  }
  // Several seeds at once, as the session's dirty-row path passes them:
  // the rows of all seeds, deduped across seeds.
  ExpectProjectionsAgree(index, q, seeds, "every seed");
}

/// One atom of arity 1-4 whose positions draw from three variables and
/// two constants, so repeated variables and constants past the key are
/// common: the indexed search on one atom, which a stale entry's
/// covering-atom candidates run through, checked against the naive
/// matcher, unseeded and seeded.
TEST_P(MatcherDifferential, SingleAtomQueries) {
  uint64_t seed = GetParam();
  Rng rng(seed * 29 + 3);
  const std::vector<std::string> pool = {"x", "y", "z", "'c0'", "'c1'"};
  int arity = static_cast<int>(rng.Range(1, 4));
  std::vector<std::string> terms;
  for (int i = 0; i < arity; ++i) {
    terms.push_back(pool[rng.Below(rng.Chance(1, 4) ? 5 : 3)]);
  }
  Query q({Atom::Make("R", terms, static_cast<int>(rng.Range(1, arity)))});
  DbGenOptions dopts;
  dopts.seed = seed * 41 + 9;
  dopts.domain_size = 2 + static_cast<int>(seed % 2);
  dopts.facts_per_relation = 4 + static_cast<int>(seed % 12);
  Database db = RandomDatabase(q, dopts);
  ExpectMatchersAgree(db, q, "single atom");
  FactIndex index(db);
  std::vector<Valuation> seeds;
  for (SymbolId var : q.Vars()) {
    for (SymbolId value : db.ActiveDomain()) {
      Valuation initial;
      initial.Bind(var, value);
      seeds.push_back(std::move(initial));
    }
  }
  ExpectProjectionsAgree(index, q, seeds, "single atom, every seed");
}

// 350 seeds x (1 uniform + 1 block + |corpus| + partial + single atom)
// >> 1000 pairs.
INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{351}));

// ------------------------------------------------------- FactIndex units

Database SmallDb() {
  Database db;
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "x"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "y"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"b", "x"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"x", "u", "p"}, 2)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"x", "u", "q"}, 2)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"y", "v", "p"}, 2)).ok());
  return db;
}

std::multiset<Fact> BucketFacts(const FactIndex& index, FactRun bucket) {
  std::multiset<Fact> out;
  for (int id : bucket) out.insert(index.fact(id));
  return out;
}

TEST(FactIndexTest, PositionAndKeyPrefixBuckets) {
  Database db = SmallDb();
  FactIndex index(db);
  SymbolId r = InternSymbol("R");
  SymbolId s = InternSymbol("S");
  EXPECT_EQ(index.total(), 6u);
  EXPECT_EQ(index.Facts(r).size(), 3u);
  EXPECT_EQ(index.FactsAt(r, 0, InternSymbol("a")).size(), 2u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 2u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("zz")).size(), 0u);
  EXPECT_EQ(index.FactsAt(InternSymbol("T"), 0, InternSymbol("a")).size(),
            0u);
  // Key-prefix buckets with len == key arity are exactly the blocks.
  EXPECT_EQ(index
                .FactsWithKeyPrefix(
                    s, {InternSymbol("x"), InternSymbol("u")})
                .size(),
            2u);
  EXPECT_EQ(index.FactsWithKeyPrefix(s, {InternSymbol("x")}).size(), 2u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("b")}).size(), 1u);
}

TEST(FactIndexTest, SwapFactKeepsLazyIndexesCoherent) {
  Database db = SmallDb();
  FactIndex index(db);
  SymbolId r = InternSymbol("R");
  const Fact* ax = &db.facts()[0];  // R(a | x)
  const Fact* ay = &db.facts()[1];  // R(a | y)
  // Force the lazy indexes into existence before mutating.
  ASSERT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 2u);
  ASSERT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("a")}).size(), 2u);

  index.SwapFact(ax, ax);  // Self-swap is a no-op.
  EXPECT_EQ(index.total(), 6u);

  index.SwapFact(ay, ay);
  index.Remove(ay);
  EXPECT_EQ(index.total(), 5u);
  EXPECT_FALSE(index.Contains(*ay));
  EXPECT_EQ(index.Facts(r).size(), 2u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("y")).size(), 0u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("a")}).size(), 1u);

  index.SwapFact(ax, ay);
  EXPECT_EQ(index.total(), 5u);
  EXPECT_TRUE(index.Contains(*ay));
  EXPECT_FALSE(index.Contains(*ax));
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 1u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("y")).size(), 1u);

  // After the mutations, every bucket must equal the one of an index
  // built from scratch over the same facts.
  FactIndex fresh;
  fresh.Add(ay);
  fresh.Add(&db.facts()[2]);
  for (int i = 3; i < 6; ++i) fresh.Add(&db.facts()[i]);
  for (SymbolId rel : {r, InternSymbol("S")}) {
    EXPECT_EQ(BucketFacts(index, index.Facts(rel)),
              BucketFacts(fresh, fresh.Facts(rel)));
    for (int pos = 0; pos < 3; ++pos) {
      for (SymbolId v : db.ActiveDomain()) {
        EXPECT_EQ(BucketFacts(index, index.FactsAt(rel, pos, v)),
                  BucketFacts(fresh, fresh.FactsAt(rel, pos, v)))
            << SymbolName(rel) << " pos " << pos << " val "
            << SymbolName(v);
      }
    }
  }
}

TEST(FactIndexTest, MutationBeforeFirstProbeIsSeenByLazyBuild) {
  Database db = SmallDb();
  FactIndex index(db);
  const Fact* ax = &db.facts()[0];
  const Fact* ay = &db.facts()[1];
  // Mutate while no position index exists yet; the later lazy build
  // must reflect the mutation.
  index.SwapFact(ax, ax);
  index.Remove(ay);
  SymbolId r = InternSymbol("R");
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("y")).size(), 0u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 2u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("a")}).size(), 1u);
}

TEST(FactIndexTest, RemoveOfStrangerIsNoOp) {
  Database db = SmallDb();
  FactIndex index(db);
  Fact stranger = Fact::Make("R", {"zz", "zz"}, 1);
  index.Remove(&stranger);
  EXPECT_EQ(index.total(), 6u);
}

// --------------------------------------- FactIndex model differential

/// Three relations over constants c0..c2: R(a | b, c), S(a, b | c) and
/// T(a | b). Every probe the index answers over them, plus a relation it
/// never saw and positions and prefixes past every arity.
struct IndexProbes {
  std::vector<SymbolId> relations = {InternSymbol("R"), InternSymbol("S"),
                                     InternSymbol("T"), InternSymbol("U")};
  std::vector<SymbolId> values = {InternSymbol("c0"), InternSymbol("c1"),
                                  InternSymbol("c2"), InternSymbol("zz")};
  std::vector<Query> queries = {
      MustParseQuery("R(x | y, z), S(y, z | w)"),
      MustParseQuery("R(x | y, y)"),
      MustParseQuery("T(x | y), R(y | x, z)"),
      MustParseQuery("S(x, y | 'c0'), T(y | x)"),
  };

  /// Every prefix over `values` of length 0 to 3.
  std::vector<std::vector<SymbolId>> Prefixes() const {
    std::vector<std::vector<SymbolId>> out = {{}};
    for (size_t begin = 0, len = 0; len < 3; ++len) {
      size_t end = out.size();
      for (size_t i = begin; i < end; ++i) {
        for (SymbolId v : values) {
          out.push_back(out[i]);
          out.back().push_back(v);
        }
      }
      begin = end;
    }
    return out;
  }
};

/// Expects every probe of `index` to answer what `fresh`, built from
/// scratch over the same facts, answers, as a multiset of facts; each
/// (relation, probe) pair is checked with chance `num` in 4, so the
/// index builds its tables at different points of the sequence. Also
/// checks Contains over `pool` and Satisfies against the naive matcher.
void ExpectIndexAgrees(const FactIndex& index, const FactIndex& fresh,
                       const std::vector<Fact>& pool,
                       const IndexProbes& probes, Rng* rng, int num,
                       const std::string& context) {
  ASSERT_EQ(index.total(), fresh.total()) << context;
  auto same = [&](FactRun got, FactRun want, const std::string& what) {
    ASSERT_EQ(BucketFacts(index, got), BucketFacts(fresh, want))
        << context << ": " << what;
  };
  for (SymbolId rel : probes.relations) {
    const std::string name = SymbolName(rel);
    same(index.Facts(rel), fresh.Facts(rel), "Facts(" + name + ")");
    for (int pos = 0; pos < 4; ++pos) {
      if (!rng->Chance(num, 4)) continue;
      for (SymbolId v : probes.values) {
        same(index.FactsAt(rel, pos, v), fresh.FactsAt(rel, pos, v),
             "FactsAt(" + name + ", " + std::to_string(pos) + ", " +
                 SymbolName(v) + ")");
      }
    }
    for (size_t len = 0; len <= 3; ++len) {
      if (!rng->Chance(num, 4)) continue;
      for (const std::vector<SymbolId>& prefix : probes.Prefixes()) {
        if (prefix.size() != len) continue;
        same(index.FactsWithKeyPrefix(rel, prefix),
             fresh.FactsWithKeyPrefix(rel, prefix),
             "FactsWithKeyPrefix(" + name + ", " + std::to_string(len) +
                 " values)");
      }
    }
  }
  for (const Fact& f : pool) {
    ASSERT_EQ(index.Contains(f), fresh.Contains(f))
        << context << ": Contains(" << f.ToString() << ")";
  }
  for (const Query& q : probes.queries) {
    bool naive = false;
    ForEachEmbedding(
        fresh, q, Valuation(),
        [&](const Valuation&) {
          naive = true;
          return false;
        },
        MatcherMode::kNaive);
    ASSERT_EQ(Satisfies(index, q), naive) << context << ": " << q.ToString();
  }
}

/// A random fact of R, S or T over c0..c2 (and, rarely, c3, which no
/// probe names).
Fact RandomPoolFact(Rng* rng) {
  static const char* kValues[] = {"c0", "c1", "c2", "c3"};
  auto value = [&] { return kValues[rng->Chance(1, 12) ? 3 : rng->Below(3)]; };
  switch (rng->Below(3)) {
    case 0:
      return Fact::Make("R", {value(), value(), value()}, 1);
    case 1:
      return Fact::Make("S", {value(), value(), value()}, 2);
    default:
      return Fact::Make("T", {value(), value()}, 1);
  }
}

/// Model-based differential of the owning index: random Add, Remove
/// (of live addresses and of strangers) and SwapFact over a pool in which
/// equal facts sit at distinct addresses, checked after every step
/// against a fresh index over the live addresses. Odd seeds start from
/// an index over a database, which the first mutation turns into an
/// owning one.
TEST(FactIndexTest, RandomMutationsMatchAFreshIndex) {
  const IndexProbes probes;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919 + 1);
    std::vector<Fact> pool;
    for (int i = 0; i < 20; ++i) pool.push_back(RandomPoolFact(&rng));
    for (int i = 0; i < 4; ++i) pool.push_back(pool[rng.Below(pool.size())]);
    Database db;
    std::vector<const Fact*> live;
    if (seed % 2 == 1) {
      for (const Fact& f : pool) {
        if (rng.Chance(1, 2)) {
          ASSERT_TRUE(db.AddFact(f).ok());
        }
      }
      for (const Fact& f : db.facts()) live.push_back(&f);
    }
    std::optional<FactIndex> index;
    if (seed % 2 == 1) {
      index.emplace(db);
    } else {
      index.emplace();
    }
    const int num = 1 + static_cast<int>(seed % 4);
    for (int step = 0; step < 40; ++step) {
      const Fact* pick = &pool[rng.Below(pool.size())];
      switch (live.empty() ? 0 : rng.Below(4)) {
        case 0:
        case 1:
          index->Add(pick);
          live.push_back(pick);
          break;
        case 2: {
          size_t at = rng.Below(live.size());
          const Fact* gone = rng.Chance(1, 5) ? &pool[0] : live[at];
          auto it = std::find(live.begin(), live.end(), gone);
          index->Remove(gone);
          if (it != live.end()) live.erase(it);
          break;
        }
        default: {
          size_t at = rng.Below(live.size());
          index->SwapFact(live[at], pick);
          live[at] = pick;
          break;
        }
      }
      FactIndex fresh(live);
      ExpectIndexAgrees(*index, fresh, pool, probes, &rng, num,
                        "seed " + std::to_string(seed) + " step " +
                            std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

/// The same differential for an index that follows a database, the
/// serving session's shared index: random AddFact and RemoveFact on the
/// database, each reported through Inserted or Erasing, checked after
/// every step against a fresh index over the database.
TEST(FactIndexTest, FollowedDatabaseMatchesAFreshIndex) {
  const IndexProbes probes;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 104729 + 3);
    std::vector<Fact> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(RandomPoolFact(&rng));
    Database db;
    FactIndex index(db);
    const int num = 1 + static_cast<int>(seed % 4);
    for (int step = 0; step < 40; ++step) {
      const Fact& f = pool[rng.Below(pool.size())];
      if (db.Contains(f)) {
        index.Erasing(db.FactId(f));
        ASSERT_TRUE(db.RemoveFact(f).ok());
      } else {
        ASSERT_TRUE(db.AddFact(f).ok());
        index.Inserted(db.FactId(f));
      }
      FactIndex fresh(db);
      ExpectIndexAgrees(index, fresh, pool, probes, &rng, num,
                        "seed " + std::to_string(seed) + " step " +
                            std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

// ------------------------------------------------ EnumerateProjections

TEST(EnumerateProjectionsTest, ExpiredDeadlineAnswersDeadlineExceeded) {
  Database db = SmallDb();
  FactIndex index(db);
  Query q = MustParseQuery("R(x | y), S(y, u | w)");
  for (std::vector<SymbolId> vars :
       {std::vector<SymbolId>{}, std::vector<SymbolId>{InternSymbol("x")}}) {
    Result<std::vector<std::vector<SymbolId>>> live =
        EnumerateProjections(index, q, {Valuation()}, vars);
    ASSERT_TRUE(live.ok());
    EXPECT_FALSE(live->empty());
    Result<std::vector<std::vector<SymbolId>>> expired = EnumerateProjections(
        index, q, {Valuation()}, vars, Deadline::AfterMillis(0));
    ASSERT_FALSE(expired.ok());
    EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  }
}

/// The search polls the deadline per fact read, matched or not. Neither
/// query embeds here: no R fact repeats its value, and no S key is an R
/// value, so every fact read is a dead end and no embedding is ever
/// found. 65536 searches over 4096 R facts each must still stop once
/// 20 ms have passed.
TEST(EnumerateProjectionsTest, DeadlineStopsASearchThatFindsNothing) {
  std::vector<Fact> facts;
  facts.reserve(2 * 4096);
  for (int i = 0; i < 4096; ++i) {
    facts.push_back(Fact::Make(
        "R", {"a" + std::to_string(i), "b" + std::to_string(i)}, 1));
    facts.push_back(Fact::Make(
        "S", {"c" + std::to_string(i), "d" + std::to_string(i)}, 1));
  }
  FactIndex index;
  for (const Fact& f : facts) index.Add(&f);
  for (const char* text : {"R(x | x)", "R(x | y), S(y | z)"}) {
    Query q = MustParseQuery(text);
    std::vector<Valuation> seeds(65536);
    auto start = std::chrono::steady_clock::now();
    Result<std::vector<std::vector<SymbolId>>> rows = EnumerateProjections(
        index, q, seeds, {InternSymbol("x")}, Deadline::AfterMillis(20));
    auto took = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(rows.ok()) << text;
    EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded) << text;
    EXPECT_LT(took, std::chrono::seconds(2)) << text;
  }
}

/// Values that differ in every byte position, so the radix sort's four
/// byte passes over every column all matter; the differential above
/// only sees the small identifiers of a test-sized symbol table.
TEST(EnumerateProjectionsTest, RowsSortLikeVectorsAcrossEveryByte) {
  std::mt19937 rng(7);
  std::vector<SymbolId> pool = {0u, 0xffu, 0xff00u, 0xff0000u, 0xff000000u,
                                0xffffffffu};
  while (pool.size() < 16) pool.push_back(static_cast<SymbolId>(rng()));
  std::vector<Fact> facts;
  for (int i = 0; i < 3000; ++i) {
    facts.emplace_back(InternSymbol("R"),
                       std::vector<SymbolId>{pool[rng() % 16],
                                             pool[rng() % 16],
                                             pool[rng() % 16]},
                       1);
  }
  FactIndex index;
  for (const Fact& f : facts) index.Add(&f);
  Query q = MustParseQuery("R(x | y, z)");
  const std::vector<SymbolId> names = {InternSymbol("x"), InternSymbol("y"),
                                       InternSymbol("z")};
  for (const std::vector<int>& columns :
       std::vector<std::vector<int>>{{0, 1, 2}, {2, 0}, {1}, {1, 2}}) {
    std::vector<SymbolId> vars;
    for (int c : columns) vars.push_back(names[c]);
    std::set<std::vector<SymbolId>> expected;
    for (const Fact& f : facts) {
      std::vector<SymbolId> row;
      for (int c : columns) row.push_back(f.values()[c]);
      expected.insert(std::move(row));
    }
    Result<std::vector<std::vector<SymbolId>>> rows =
        EnumerateProjections(index, q, {Valuation()}, vars);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, std::vector<std::vector<SymbolId>>(expected.begin(),
                                                        expected.end()))
        << columns.size() << " column(s)";
  }
}

/// 1100 x 1000 embeddings projected onto x, and onto x and y: the flat
/// buffer passes its compaction threshold and must still yield exactly
/// the 1100 distinct rows, through the one-column sort and the radix
/// sort alike.
TEST(EnumerateProjectionsTest, CompactionKeepsTheDistinctRows) {
  Database db;
  std::vector<std::vector<SymbolId>> xs;
  for (int i = 0; i < 1100; ++i) {
    std::string x = "x" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(Fact::Make("R", {x, "hub"}, 1)).ok());
    xs.push_back({InternSymbol(x)});
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        db.AddFact(Fact::Make("S", {"hub", "z" + std::to_string(i)}, 1)).ok());
  }
  FactIndex index(db);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  for (bool with_y : {false, true}) {
    std::vector<SymbolId> vars = {InternSymbol("x")};
    if (with_y) vars.push_back(InternSymbol("y"));
    std::vector<std::vector<SymbolId>> expected = xs;
    if (with_y) {
      for (std::vector<SymbolId>& row : expected) {
        row.push_back(InternSymbol("hub"));
      }
    }
    std::sort(expected.begin(), expected.end());
    Result<std::vector<std::vector<SymbolId>>> rows =
        EnumerateProjections(index, q, {Valuation()}, vars);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, expected) << vars.size() << " column(s)";
    // Under a cap the buffer is compacted far more often; the 1000
    // repeats of each row must still count once.
    for (size_t max_rows : {size_t{1100}, size_t{1099}}) {
      Result<std::optional<std::vector<std::vector<SymbolId>>>> capped =
          EnumerateProjectionsAtMost(index, q, {Valuation()}, vars, max_rows);
      ASSERT_TRUE(capped.ok());
      ASSERT_EQ(capped->has_value(), max_rows == 1100)
          << vars.size() << " column(s)";
      if (capped->has_value()) {
        EXPECT_EQ(**capped, expected) << vars.size() << " column(s)";
      }
    }
  }
}

/// A cap stops the search soon after the rows pass it: an 8000 x 4000
/// cross product projected onto both sides passes 32 distinct rows
/// within its first few dozen embeddings, while enumerating all 32
/// million takes far longer than the 200 ms deadline.
TEST(EnumerateProjectionsTest, CapStopsACrossProductEarly) {
  std::vector<Fact> facts;
  facts.reserve(12000);
  for (int i = 0; i < 8000; ++i) {
    facts.push_back(Fact::Make("R", {"r" + std::to_string(i), "u"}, 1));
    if (i < 4000) {
      facts.push_back(Fact::Make("T", {"t" + std::to_string(i), "v"}, 1));
    }
  }
  FactIndex index;
  for (const Fact& f : facts) index.Add(&f);
  Result<std::optional<std::vector<std::vector<SymbolId>>>> capped =
      EnumerateProjectionsAtMost(index, MustParseQuery("R(x | y), T(z | w)"),
                                 {Valuation()},
                                 {InternSymbol("x"), InternSymbol("z")}, 32,
                                 Deadline::AfterMillis(200));
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_FALSE(capped->has_value());
}

TEST(RepairEnumeratorTest, IndexedEnumerationMatchesPlain) {
  Query q = MustParseQuery("R(x | y), S(y, z | w)");
  BlockDbGenOptions bopts;
  bopts.seed = 99;
  bopts.blocks_per_relation = 3;
  bopts.max_block_size = 3;
  bopts.domain_size = 3;
  Database db = RandomBlockDatabase(q, bopts);
  RepairEnumerator repairs(db);

  std::vector<std::multiset<Fact>> plain;
  repairs.ForEach([&](const Repair& repair) {
    std::multiset<Fact> facts;
    for (const Fact* f : repair) facts.insert(*f);
    plain.push_back(std::move(facts));
    return true;
  });

  size_t step = 0;
  repairs.ForEachIndexed([&](const FactIndex& index, const Repair& repair) {
    EXPECT_LT(step, plain.size());
    // The incremental index holds exactly the current repair's facts.
    std::multiset<Fact> from_index;
    for (const Database::Block& b : db.blocks()) {
      std::vector<SymbolId> key = b.key;
      for (int id : index.FactsWithKeyPrefix(b.relation, key)) {
        const Fact& f = index.fact(id);
        if (f.KeyValues() == key) from_index.insert(f);
      }
    }
    std::multiset<Fact> from_repair;
    for (const Fact* f : repair) from_repair.insert(*f);
    EXPECT_EQ(from_index, from_repair);
    EXPECT_EQ(from_repair, plain[step]);
    EXPECT_EQ(index.total(), repair.size());
    // Spot-check satisfaction parity against a fresh index.
    EXPECT_EQ(Satisfies(index, q), Satisfies(repair, q));
    ++step;
    return true;
  });
  EXPECT_EQ(step, plain.size());
}

}  // namespace
}  // namespace cqa
