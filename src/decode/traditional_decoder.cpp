#include "decode/traditional_decoder.h"

#include "common/timer.h"

namespace ppm {

std::optional<TraditionalResult> TraditionalDecoder::decode(
    const FailureScenario& scenario, std::uint8_t* const* blocks,
    std::size_t block_bytes, SequencePolicy policy) const {
  if (block_bytes % code_->field().symbol_bytes() != 0) return std::nullopt;
  TraditionalResult result;
  if (scenario.empty()) return result;

  const Timer total;
  const auto plan =
      CachedPlan::whole_matrix(code_->parity_check(), scenario, policy);
  if (!plan.has_value()) return std::nullopt;
  result.plan_seconds = total.seconds();

  plan->execute(blocks, block_bytes, &result.stats);
  result.sequence_used = plan->rest()->sequence();
  result.seconds = total.seconds();
  return result;
}

std::optional<TraditionalResult> TraditionalDecoder::encode(
    std::uint8_t* const* blocks, std::size_t block_bytes,
    SequencePolicy policy) const {
  return decode(FailureScenario::encoding_of(*code_), blocks, block_bytes,
                policy);
}

}  // namespace ppm
