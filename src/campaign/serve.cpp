// The serve campaign: the DecodeServer on a clean source and under seeded
// transient stragglers, the serial ladder on the same straggler schedules,
// and optionally a paced background Scrubber sharing the process.
#include <future>
#include <optional>
#include <stop_token>
#include <thread>

#include "campaign/campaign.h"
#include "common/timer.h"
#include "serve/server.h"

namespace ppm::campaign {

namespace {

// DecodeServer sizing: fixed, as no caller varies them.
constexpr std::size_t kQueueDepth = 64;
constexpr unsigned kDispatchers = 2;
constexpr unsigned kReactorThreads = 32;

/// One request's working stripe and fault-injecting source.
struct Request {
  Request(const ReferenceStripe& reference, const FailureScenario& sc)
      : stripe(reference.erased_copy(sc)),
        inner(reference.ptrs.data(), reference.ptrs.size(),
              reference.storage.block_bytes()),
        source(inner) {}
  std::unique_ptr<Stripe> stripe;
  io::MemoryBlockSource inner;
  io::FaultInjectingSource source;
};

/// A paced Scrubber over its own two-stripe fleet that plants one silent
/// corruption per cycle, counting its cycles, until destroyed.
struct BackgroundScrub {
  BackgroundScrub(const ErasureCode& code, const ServeOptions& options,
                  std::size_t& cycles)
      : codec(code),  // its own plan cache: serving's stays untouched
        scrubber(codec,
                 {.sweep_read_retries = options.retries,
                  .rate_bytes_per_sec = options.scrub_rate_kbps * 1024.0,
                  .repair = {.max_read_retries = options.retries}}) {
    Rng fill(options.seed + 17);
    for (std::size_t i = 0; i < 2; ++i) {
      fleet.push_back(
          std::make_unique<PatrolledStripe>(code, options.block_bytes, fill));
      scrubber.add_target(
          fleet.back()->target("serve-scrub-" + std::to_string(i)));
    }
    patrol = std::jthread([&, total = code.total_blocks(),
                           bytes = options.block_bytes](std::stop_token stop) {
      for (std::size_t iter = 0; !stop.stop_requested(); ++iter, ++cycles) {
        // Only this thread touches the seams, so set_fault and run_cycle
        // never race.
        fleet[iter % fleet.size()]->seam->set_fault(
            iter % total, {.corrupt = true,
                           .corrupt_offset = iter % bytes,
                           .corrupt_bytes = 4});
        scrubber.run_cycle();
      }
    });
  }

  BackgroundScrub(const BackgroundScrub&) = delete;  // the patrol holds this
  BackgroundScrub& operator=(const BackgroundScrub&) = delete;

  Codec codec;
  scrub::Scrubber scrubber;
  Fleet fleet;
  std::jthread patrol;  ///< last: stops and joins first
};

void append_json(std::string& out, const char* name, const PhaseReport& st) {
  out += ",\"";
  out += name;
  out += "\":{\"requests\":" + std::to_string(st.requests);
  out += ",\"rejected\":" + std::to_string(st.rejected);
  out += ",\"verify_failures\":" + std::to_string(st.verdict.failures.size());
  out += ",\"fallbacks\":" + std::to_string(st.fallbacks);
  out += ",\"overlapped\":" + std::to_string(st.overlapped);
  out += ",\"hedges\":{\"launched\":" + std::to_string(st.hedges_launched);
  out += ",\"won\":" + std::to_string(st.hedges_won);
  out += ",\"wasted\":" + std::to_string(st.hedges_wasted);
  out += "},\"latency\":";
  st.latency.append_json(out);
  out += "}";
}

}  // namespace

void run_serve(const ErasureCode& code, const ServeOptions& options,
               ServeReport& report) {
  Rng fill(options.seed + 17);
  const ReferenceStripe reference(code, options.block_bytes, fill);
  Codec codec(code);
  // Transient stragglers: a duplicate read is fast.
  const io::FaultInjectingSource::CampaignOptions stragglers{
      .delay = options.straggle, .delay_ns = options.delay,
      .delay_attempts = 1};
  const serve::ServerOptions sopts{
      .queue_depth = kQueueDepth,
      .dispatchers = kDispatchers,
      .overlap = {.hedge = {},
                  .resilience = {.max_read_retries = options.retries},
                  .reactor_threads = kReactorThreads}};

  // One phase: per scenario and round, `requests` requests over sources
  // rolled from one seeded stream, either served concurrently (one plan
  // key, so the server batches them) or decoded serially.
  const auto run_phase = [&](const char* name, PhaseReport& st, bool inject,
                             bool served, std::uint64_t seed) {
    Rng rng(seed);
    std::optional<serve::DecodeServer> server;
    if (served) server.emplace(codec, sopts);
    for (std::size_t round = 0; round < options.rounds; ++round) {
      for (const FailureScenario& sc : options.scenarios) {
        const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                              sc.faulty().end());
        std::vector<std::unique_ptr<Request>> requests;
        std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
        for (std::size_t k = 0; k < options.requests; ++k) {
          requests.push_back(std::make_unique<Request>(reference, sc));
          Request& r = *requests.back();
          if (inject) r.source.roll_campaign(stragglers, rng, exempt);
          ++st.requests;
          if (!served) continue;
          futures.push_back(server->submit(
              {sc, &r.source, r.stripe->block_ptrs(), options.block_bytes,
               reference.digests}));
        }
        for (std::size_t k = 0; k < options.requests; ++k) {
          Request& r = *requests[k];
          bool complete = false;
          if (!served) {
            const Timer timer;
            complete = codec
                           .decode_resilient(sc, r.source,
                                             r.stripe->block_ptrs(),
                                             options.block_bytes,
                                             sopts.overlap.resilience,
                                             reference.digests)
                           .complete;
            st.latency.record_nanos(
                static_cast<std::uint64_t>(timer.nanos()));
          } else if (futures[k].has_value()) {
            const serve::OverlapResult out = futures[k]->get();
            st.latency.record_nanos(static_cast<std::uint64_t>(out.total_ns));
            complete = out.complete;
            st.fallbacks += out.fallback ? 1 : 0;
            st.overlapped += out.overlapped ? 1 : 0;
            st.hedges_launched += out.hedges_launched;
            st.hedges_won += out.hedges_won;
            st.hedges_wasted += out.hedges_wasted;
          } else {
            ++st.rejected;
            continue;
          }
          const std::string where =
              std::string(name) + " phase, scenario [" + scenario_ids(sc) +
              "]: ";
          st.verdict.expect(complete, where + "request did not complete");
          st.verdict.expect(r.stripe->equals(reference.snap),
                            where + "decoded stripe not byte-identical");
        }
      }
    }
  };

  report.code = code.name();
  std::unique_ptr<BackgroundScrub> scrub;
  if (options.scrub_rate_kbps > 0) {
    scrub = std::make_unique<BackgroundScrub>(code, options,
                                              report.scrub_cycles);
  }
  run_phase("clean", report.clean, false, true, options.seed);
  run_phase("hedged", report.hedged, true, true, options.seed + 1000);
  // The serial baseline replays the hedged phase's straggler schedules.
  report.ran_serial = options.serial;
  if (options.serial) {
    run_phase("serial", report.serial, true, false, options.seed + 1000);
  }
  scrub.reset();
}

std::size_t ServeReport::verify_failures() const {
  return clean.verdict.failures.size() + hedged.verdict.failures.size() +
         serial.verdict.failures.size();
}

std::string ServeReport::to_json() const {
  std::string json = "{\"code\":\"" + code + "\"";
  append_json(json, "clean", clean);
  append_json(json, "hedged", hedged);
  if (ran_serial) append_json(json, "serial", serial);
  return json + ",\"verify_failures\":" + std::to_string(verify_failures()) +
         "}";
}

}  // namespace ppm::campaign
