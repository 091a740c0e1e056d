// SubPlan: planning costs and region execution for both calculation
// sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "codes/sd_code.h"
#include "common/rng.h"
#include "decode/plan.h"
#include "test_util.h"
#include "workload/stripe.h"

namespace ppm {
namespace {

std::vector<std::size_t> all_rows(const Matrix& h) {
  std::vector<std::size_t> rows(h.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

// Per-symbol reference for SubPlan::execute: the plan's matrices applied
// with test::reference_mult_xor over whole blocks, no tiles, no kernels.
// Returns the unknown blocks in plan order.
std::vector<std::vector<std::uint8_t>> reference_execute(
    const SubPlan& plan, std::uint8_t* const* blocks, std::size_t bytes) {
  const gf::Field& f = plan.finv().field();
  const auto apply = [&](const Matrix& m, const auto& src_of) {
    std::vector<std::vector<std::uint8_t>> out(
        m.rows(), std::vector<std::uint8_t>(bytes, 0));
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        test::reference_mult_xor(f, out[i].data(), src_of(j), m(i, j), bytes);
      }
    }
    return out;
  };
  const auto survivor = [&](std::size_t j) {
    return blocks[plan.survivors()[j]];
  };
  if (plan.sequence() == Sequence::kMatrixFirst) {
    return apply(plan.finv(), survivor);
  }
  const auto tmp = apply(plan.s(), survivor);
  return apply(plan.finv(), [&](std::size_t j) { return tmp[j].data(); });
}

TEST(SubPlan, PartialLastTileMatchesPerSymbolReference) {
  // Blocks that end in a partial tile: one tile + 2 symbols, and three
  // tiles + 60 bytes. Both sequences, every width.
  for (const unsigned w : {8u, 16u, 32u}) {
    const SDCode code(6, 4, 2, 1, w);
    const FailureScenario sc({0, 1, 2, 6, 7, 12, 13, 18, 19});
    for (const std::size_t bytes :
         {SubPlan::kTileBytes + 2 * (w / 8), 3 * SubPlan::kTileBytes + 60}) {
      for (const Sequence seq : {Sequence::kNormal, Sequence::kMatrixFirst}) {
        Stripe stripe(code, bytes);
        const auto snap = test::fill_and_encode(code, stripe, 31 + w);
        const auto plan =
            SubPlan::make(code.parity_check(), all_rows(code.parity_check()),
                          sc.faulty(), sc.faulty(), seq);
        ASSERT_TRUE(plan.has_value());
        const auto expect =
            reference_execute(*plan, stripe.block_ptrs(), bytes);
        stripe.erase(sc);
        plan->execute(stripe.block_ptrs(), bytes);
        for (std::size_t i = 0; i < plan->unknowns().size(); ++i) {
          const std::uint8_t* got = stripe.block(plan->unknowns()[i]);
          EXPECT_TRUE(std::equal(got, got + bytes, expect[i].begin()))
              << "w=" << w << " bytes=" << bytes << " unknown " << i
              << " sequence " << static_cast<int>(seq);
        }
        EXPECT_TRUE(stripe.equals(snap)) << "w=" << w << " bytes=" << bytes;
      }
    }
  }
}

TEST(SubPlan, SymbolSplittingBlocksThrowUntouched) {
  const SDCode code(6, 4, 2, 1, 16);
  const FailureScenario sc({0, 6});
  const auto plan =
      SubPlan::make(code.parity_check(), all_rows(code.parity_check()),
                    sc.faulty(), sc.faulty(), Sequence::kMatrixFirst);
  ASSERT_TRUE(plan.has_value());
  Stripe stripe(code, SubPlan::kTileBytes + 2);
  const auto snap = test::fill_and_encode(code, stripe, 5);
  EXPECT_THROW(plan->execute(stripe.block_ptrs(), SubPlan::kTileBytes + 1),
               std::invalid_argument);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(SubPlan, Fig2WholeSystemCosts) {
  // C1 = u(F^-1) + u(S) = 35, C2 = u(F^-1 * S) = 31 (paper §II-B).
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  const std::vector<std::size_t> faulty{2, 6, 10, 13, 14};
  const auto costs = SubPlan::sequence_costs(code.parity_check(),
                                             all_rows(code.parity_check()),
                                             faulty, faulty);
  ASSERT_TRUE(costs.has_value());
  EXPECT_EQ(costs->first, 35u);
  EXPECT_EQ(costs->second, 31u);
}

TEST(SubPlan, CostMatchesExecutedMultXors) {
  const SDCode code(6, 4, 2, 2, 8);
  const std::vector<std::size_t> faulty{0, 6, 12, 18, 1, 7, 13, 19, 2, 8};
  std::vector<std::size_t> sorted(faulty);
  std::sort(sorted.begin(), sorted.end());
  for (const Sequence seq : {Sequence::kNormal, Sequence::kMatrixFirst}) {
    const auto plan = SubPlan::make(code.parity_check(),
                                    all_rows(code.parity_check()), sorted,
                                    sorted, seq);
    ASSERT_TRUE(plan.has_value());
    Stripe stripe(code, 512);
    DecodeStats stats;
    plan->execute(stripe.block_ptrs(), stripe.block_bytes(), &stats);
    EXPECT_EQ(stats.mult_xors, plan->cost());
    EXPECT_EQ(stats.bytes_touched, plan->cost() * 512);
  }
}

TEST(SubPlan, BothSequencesProduceIdenticalBlocks) {
  const SDCode code(6, 4, 2, 1, 8);
  Stripe a(code, 2048);
  const auto snap = test::fill_and_encode(code, a, 99);
  const FailureScenario sc({0, 6, 13, 19, 2});

  for (const Sequence seq : {Sequence::kNormal, Sequence::kMatrixFirst}) {
    Stripe s(code, 2048);
    std::memcpy(s.block(0), snap.data(), snap.size());
    s.erase(sc);
    const auto plan = SubPlan::make(
        code.parity_check(), all_rows(code.parity_check()),
        sc.faulty(), sc.faulty(), seq);
    ASSERT_TRUE(plan.has_value());
    plan->execute(s.block_ptrs(), s.block_bytes());
    EXPECT_TRUE(s.equals(snap)) << "sequence " << static_cast<int>(seq);
  }
}

TEST(SubPlan, SurvivorsExcludeFaultyAndZeroColumns) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  // Recover block 2 from row 0 only: survivors must be exactly the other
  // nonzero columns of row 0, i.e. {0, 1, 3}.
  const std::vector<std::size_t> rows{0};
  const std::vector<std::size_t> unknowns{2};
  const std::vector<std::size_t> excluded{2, 6, 10, 13, 14};
  const auto plan = SubPlan::make(code.parity_check(), rows, unknowns,
                                  excluded, Sequence::kMatrixFirst);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(std::vector<std::size_t>(plan->survivors().begin(),
                                     plan->survivors().end()),
            (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(plan->cost(), 3u);
}

TEST(SubPlan, OverdeterminedSystemUsesRowSubset) {
  // One faulty block, every check row available: the plan must still work
  // (F is 5x1) and cost only what one equation costs.
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Stripe stripe(code, 1024);
  const auto snap = test::fill_and_encode(code, stripe, 7);
  const FailureScenario sc({5});
  stripe.erase(sc);
  const auto plan = SubPlan::make(code.parity_check(),
                                  all_rows(code.parity_check()), sc.faulty(),
                                  sc.faulty(), Sequence::kMatrixFirst);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cost(), 3u);  // row 1 of H: b4 ^ b6 ^ b7
  plan->execute(stripe.block_ptrs(), stripe.block_bytes());
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(SubPlan, UnsolvableReturnsNullopt) {
  // More unknowns than independent equations.
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  const std::vector<std::size_t> unknowns{0, 1, 2};
  EXPECT_FALSE(SubPlan::make(code.parity_check(),
                             all_rows(code.parity_check()), unknowns,
                             unknowns, Sequence::kNormal)
                   .has_value());
  EXPECT_FALSE(SubPlan::sequence_costs(code.parity_check(),
                                       all_rows(code.parity_check()),
                                       unknowns, unknowns)
                   .has_value());
}

TEST(SubPlan, NormalSequenceCostSplitsIntoFinvAndS) {
  // For a square dense-ish system, normal cost >= matrix-first can differ;
  // check the decomposition against manual matrix algebra.
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  const std::vector<std::size_t> faulty{2, 6, 10, 13, 14};
  const Matrix& h = code.parity_check();
  const Matrix f_mat = h.select_columns(faulty);
  const auto finv = f_mat.inverse();
  ASSERT_TRUE(finv.has_value());
  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < h.cols(); ++c) {
    if (!std::binary_search(faulty.begin(), faulty.end(), c)) {
      survivors.push_back(c);
    }
  }
  const Matrix s_mat = h.select_columns(survivors);
  EXPECT_EQ(finv->nonzeros() + s_mat.nonzeros(), 35u);
  EXPECT_EQ((*finv * s_mat).nonzeros(), 31u);
}

}  // namespace
}  // namespace ppm
