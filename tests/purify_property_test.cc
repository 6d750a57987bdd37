#include <gtest/gtest.h>

#include "cq/corpus.h"
#include "db/purify.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "solvers/oracle_solver.h"
#include "util/rng.h"

namespace cqa {
namespace {

/// Purify's output order: the kept blocks in input order, each block's
/// facts in order.
void ExpectBlocksInInputOrder(const Database& db, const Database& pure) {
  std::vector<Fact> expected;
  for (const Database::Block& block : db.blocks()) {
    if (!pure.Contains(db.facts()[block.fact_ids[0]])) continue;
    for (int id : block.fact_ids) expected.push_back(db.facts()[id]);
  }
  EXPECT_EQ(std::vector<Fact>(pure.facts().begin(), pure.facts().end()),
            expected);
}

/// Lemma 1 as a property: purification preserves membership in
/// CERTAINTY(q), is idempotent, and yields a purified database.
class PurifyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PurifyProperty, PreservesCertaintyOnRandomQueries) {
  QueryGenOptions qopts;
  qopts.seed = GetParam();
  qopts.num_atoms = 2 + static_cast<int>(GetParam() % 3);
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions options;
  options.seed = GetParam() * 7 + 1;
  options.blocks_per_relation = 2;
  options.max_block_size = 2;
  options.domain_size = 3;
  Database db = RandomBlockDatabase(q, options);
  if (db.RepairCount() > BigInt(4096)) return;
  Database pure = Purify(db, q);
  EXPECT_TRUE(IsPurified(pure, q)) << q.ToString();
  ExpectBlocksInInputOrder(db, pure);
  EXPECT_EQ(*OracleSolver(q).IsCertain(db),
            *OracleSolver(q).IsCertain(pure))
      << q.ToString() << "\n"
      << db.ToString();
  // Idempotence.
  EXPECT_EQ(Purify(pure, q).ToString(), pure.ToString());
}

TEST_P(PurifyProperty, PreservesCertaintyOnCorpus) {
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions options;
    options.seed = GetParam() * 13 + 3;
    options.blocks_per_relation = 2;
    options.max_block_size = 2;
    options.domain_size = 3;
    Database db = RandomBlockDatabase(q, options);
    if (db.RepairCount() > BigInt(4096)) continue;
    Database pure = Purify(db, q);
    ExpectBlocksInInputOrder(db, pure);
    EXPECT_EQ(*OracleSolver(q).IsCertain(db),
              *OracleSolver(q).IsCertain(pure))
        << name << "\n"
        << db.ToString();
  }
}

TEST_P(PurifyProperty, KeepsBlocksInInputOrderWhenFactsInterleave) {
  // The generator adds facts block by block; shuffled, the blocks
  // interleave in facts(), so fact order and block order differ.
  QueryGenOptions qopts;
  qopts.seed = GetParam() + 1000;
  qopts.num_atoms = 2 + static_cast<int>(GetParam() % 2);
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions options;
  options.seed = GetParam() * 5 + 2;
  options.blocks_per_relation = 3;
  options.max_block_size = 3;
  options.domain_size = 3;
  Database db = RandomBlockDatabase(q, options);
  std::vector<Fact> facts(db.facts().begin(), db.facts().end());
  Rng rng(GetParam());
  rng.Shuffle(&facts);
  Database shuffled(db.schema());
  for (const Fact& f : facts) ASSERT_TRUE(shuffled.AddFact(f).ok());
  ExpectBlocksInInputOrder(shuffled, Purify(shuffled, q));
}

TEST_P(PurifyProperty, WitnessCountMatchesRemovedBlocks) {
  QueryGenOptions qopts;
  qopts.seed = GetParam() + 500;
  qopts.num_atoms = 2;
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions options;
  options.seed = GetParam() * 3 + 11;
  Database db = RandomBlockDatabase(q, options);
  std::vector<Fact> witnesses;
  Database pure = Purify(db, q, &witnesses);
  EXPECT_EQ(pure.blocks().size() + witnesses.size(), db.blocks().size());
  for (const Fact& w : witnesses) {
    EXPECT_TRUE(db.Contains(w));
    EXPECT_FALSE(pure.Contains(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PurifyProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{60}));

}  // namespace
}  // namespace cqa
