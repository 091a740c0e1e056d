// The campaigns' shared pieces and the chaos campaign: decode_resilient
// under seeded per-block read faults on top of whole-disk failures.
#include "campaign/campaign.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>

#include "common/crc32.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "decode/plan.h"
#include "decode/traditional_decoder.h"

namespace ppm::campaign {

void Verdict::take(const Verdict& other, const std::string& context) {
  for (const std::string& what : other.failures) fail(context + what);
}

std::vector<FailureScenario> disk_sweep(const ErasureCode& code,
                                        std::size_t max_disks) {
  std::vector<FailureScenario> out;
  std::vector<std::size_t> combo;
  const auto recurse = [&](auto&& self, std::size_t next,
                           std::size_t remaining) -> void {
    if (remaining == 0) {
      std::vector<std::size_t> faulty;
      for (const std::size_t d : combo) {
        for (std::size_t row = 0; row < code.rows(); ++row) {
          faulty.push_back(code.block_id(row, d));
        }
      }
      out.emplace_back(faulty);
      return;
    }
    for (std::size_t d = next; d + remaining <= code.disks(); ++d) {
      combo.push_back(d);
      self(self, d + 1, remaining - 1);
      combo.pop_back();
    }
  };
  for (std::size_t k = 1; k <= std::min(max_disks, code.disks()); ++k) {
    recurse(recurse, 0, k);
  }
  return out;
}

std::string scenario_ids(const FailureScenario& scenario) {
  std::string ids;
  for (const std::size_t b : scenario.faulty()) {
    if (!ids.empty()) ids += ',';
    ids += std::to_string(b);
  }
  return ids;
}

std::vector<const std::uint8_t*> snapshot_ptrs(
    const std::vector<std::uint8_t>& snap, std::size_t blocks,
    std::size_t bytes) {
  std::vector<const std::uint8_t*> ptrs(blocks);
  for (std::size_t i = 0; i < blocks; ++i) ptrs[i] = snap.data() + i * bytes;
  return ptrs;
}

std::vector<std::uint32_t> digests_of(const std::vector<std::uint8_t>& snap,
                                      std::size_t blocks, std::size_t bytes) {
  std::vector<std::uint32_t> crc(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    crc[i] = crc32(snap.data() + i * bytes, bytes);
  }
  return crc;
}

ReferenceStripe::ReferenceStripe(const ErasureCode& code,
                                 std::size_t block_bytes, Rng& fill)
    : storage(code, block_bytes) {
  storage.fill_data(fill);
  if (!TraditionalDecoder(code).encode(storage.block_ptrs(), block_bytes)) {
    throw std::runtime_error("reference encode failed");
  }
  snap = storage.snapshot();
  ptrs = snapshot_ptrs(snap, code.total_blocks(), block_bytes);
  digests = digests_of(snap, code.total_blocks(), block_bytes);
}

std::unique_ptr<Stripe> ReferenceStripe::erased_copy(
    const FailureScenario& erased) const {
  auto copy = std::make_unique<Stripe>(storage.code(), storage.block_bytes());
  std::memcpy(copy->block(0), snap.data(), snap.size());
  copy->erase(erased);
  return copy;
}

PatrolledStripe::PatrolledStripe(const ErasureCode& code,
                                 std::size_t block_bytes, Rng& fill)
    : ReferenceStripe(code, block_bytes, fill),
      scratch(code, block_bytes),
      store(std::make_unique<io::MemoryBlockStore>(
          storage.block_ptrs(), code.total_blocks(), block_bytes)),
      seam(std::make_unique<io::FaultInjectingSource>(*store, *store)) {}

scrub::ScrubTarget PatrolledStripe::target(std::string stripe_id) {
  scrub::ScrubTarget t;
  t.source = seam.get();
  t.writer = seam.get();
  t.blocks = scratch.block_ptrs();
  t.expected_crc = digests;
  t.stripe_id = std::move(stripe_id);
  return t;
}

// ---- chaos ------------------------------------------------------------------

std::vector<std::size_t> mirror_partial_expectation(
    const Matrix& h, const FailureScenario& final_scenario,
    const io::FaultInjectingSource& source, std::size_t retries) {
  const LogTable table = LogTable::build(h, final_scenario.faulty());
  const Partition part = make_partition(h, table);
  std::vector<std::size_t> expected;
  const auto readable = [&](std::span<const std::size_t> survivors) {
    for (const std::size_t s : survivors) {
      if (std::binary_search(expected.begin(), expected.end(), s)) {
        continue;  // recovered by an earlier group: in-buffer
      }
      if (source.fault(s).permanently_unreadable(retries)) return false;
    }
    return true;
  };
  const auto take = [&](std::span<const std::size_t> blocks) {
    for (const std::size_t b : blocks) {
      expected.insert(std::upper_bound(expected.begin(), expected.end(), b),
                      b);
    }
  };
  for (const IndependentGroup& g : part.groups) {
    const auto sub = SubPlan::make(h, g.rows, g.faulty_cols,
                                   final_scenario.faulty(),
                                   Sequence::kMatrixFirst);
    if (sub.has_value() && readable(sub->survivors())) take(g.faulty_cols);
  }
  if (!part.rest_empty() &&
      expected.size() + part.rest_faulty.size() == final_scenario.count()) {
    const auto sub = SubPlan::make(h, part.rest_rows, part.rest_faulty,
                                   part.rest_faulty, Sequence::kMatrixFirst);
    if (sub.has_value() && readable(sub->survivors())) take(part.rest_faulty);
  }
  return expected;
}

Verdict judge_chaos_run(Codec& codec, const FailureScenario& scenario,
                        const io::FaultInjectingSource& source,
                        std::size_t retries, const ResilientResult& out,
                        const Stripe& decoded,
                        const std::vector<std::uint8_t>& snap) {
  Verdict verdict;
  if (out.complete) {
    const auto final_faulty = out.final_scenario.faulty();
    verdict.expect(decoded.equals(snap), "complete but not byte-identical");
    verdict.expect(std::ranges::equal(out.recovered, final_faulty),
                   "complete but recovered != final faulty set");
    return verdict;
  }
  // Worst-case escalated set: the scenario plus every survivor the
  // schedule makes permanently unreadable under this retry budget.
  const ErasureCode& code = decoded.code();
  std::vector<std::size_t> worst(scenario.faulty().begin(),
                                 scenario.faulty().end());
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    if (!scenario.contains(b) &&
        source.fault(b).permanently_unreadable(retries)) {
      worst.push_back(b);
    }
  }
  const FailureScenario worst_sc(worst);
  verdict.expect(worst_sc.count() > code.check_rows() ||
                     codec.plan_for(worst_sc) == nullptr,
                 "within-capability scenario did not recover completely");
  verdict.expect(out.recovered == mirror_partial_expectation(
                                      code.parity_check(), out.final_scenario,
                                      source, retries),
                 "recovered set != independent groups with intact inputs");
  verdict.expect(decoded.blocks_equal(snap, out.recovered),
                 "partially recovered blocks not byte-identical");
  return verdict;
}

ChaosReport run_chaos(const ErasureCode& code, const ChaosOptions& options) {
  Rng fill(options.seed + 17);
  const ReferenceStripe reference(code, options.block_bytes, fill);
  const io::FaultInjectingSource::CampaignOptions faults{
      .fail_permanent = options.permanent,
      .fail_transient = options.transient,
      .corrupt = options.corrupt};
  const ResilienceOptions ropt{.max_read_retries = options.retries};
  Codec codec(code);
  Rng rng(options.seed);

  ChaosReport report;
  report.code = code.name();
  for (const FailureScenario& sc : options.scenarios) {
    const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                          sc.faulty().end());
    for (std::size_t round = 0; round < options.rounds; ++round) {
      const auto stripe = reference.erased_copy(sc);
      io::MemoryBlockSource inner(reference.ptrs.data(), code.total_blocks(),
                                  options.block_bytes);
      io::FaultInjectingSource source(inner);
      source.roll_campaign(faults, rng, exempt);
      const auto out =
          codec.decode_resilient(sc, source, stripe->block_ptrs(),
                                 options.block_bytes, ropt, reference.digests);
      ++report.runs;
      report.retries += out.retries;
      report.escalations += out.escalations;
      report.corruption_detected += out.corruption_detected;
      report.read_failures_injected += source.failures_injected();
      report.corruptions_injected += source.corruptions_injected();
      ++(out.complete             ? report.complete
         : out.recovered.empty() ? report.none
                                 : report.partial);
      report.verdict.take(
          judge_chaos_run(codec, sc, source, options.retries, out, *stripe,
                          reference.snap),
          "scenario [" + scenario_ids(sc) + "] round " +
              std::to_string(round) + ": ");
    }
  }
  return report;
}

std::string ChaosReport::to_json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"code\":\"%s\",\"runs\":%zu,\"outcomes\":{\"complete\":%zu,"
      "\"partial\":%zu,\"none\":%zu},\"verify_failures\":%zu,"
      "\"retries\":%zu,\"escalations\":%zu,\"corruption_detected\":%zu,"
      "\"injected\":{\"read_failures\":%zu,\"corruptions\":%zu}}",
      code.c_str(), runs, complete, partial, none, verdict.failures.size(),
      retries, escalations, corruption_detected, read_failures_injected,
      corruptions_injected);
  return buf;
}

}  // namespace ppm::campaign
