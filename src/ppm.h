// Umbrella header for the PPM erasure-coding library.
//
// Typical use:
//
//   #include "ppm.h"
//
//   ppm::SDCode code(/*n=*/8, /*r=*/16, /*m=*/2, /*s=*/2, /*w=*/8);
//   ppm::Stripe stripe(code, /*block_bytes=*/64 * 1024);
//   ppm::Rng rng(1);
//   stripe.fill_data(rng);
//   ppm::Codec codec(code);  // plan cache + a worker pool
//   codec.encode(stripe.block_ptrs(), stripe.block_bytes());
//   ...
//   bool ok = codec.decode(scenario, stripe.block_ptrs(),
//                          stripe.block_bytes());
//
// See README.md for the full walkthrough and DESIGN.md for the
// architecture.
#pragma once

#include "analysis/closed_form.h"
#include "analyze_hazard/hazard.h"
#include "campaign/campaign.h"
#include "codec/codec.h"
#include "codec/resilient.h"
#include "codec/update.h"
#include "codes/coeff_search.h"
#include "codes/crs_code.h"
#include "codes/erasure_code.h"
#include "codes/evenodd_code.h"
#include "codes/lrc_code.h"
#include "codes/pmds_code.h"
#include "codes/rdp_code.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "codes/star_code.h"
#include "codes/xorbas_lrc_code.h"
#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/sealed_dir.h"
#include "common/sharded_lru.h"
#include "common/timer.h"
#include "decode/cost_model.h"
#include "decode/degraded_read.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "decode/plan.h"
#include "decode/ppm_decoder.h"
#include "decode/scenario.h"
#include "decode/traditional_decoder.h"
#include "decode/xor_schedule.h"
#include "gf/galois_field.h"
#include "io/block_source.h"
#include "io/fault_injection.h"
#include "matrix/matrix.h"
#include "matrix/solve.h"
#include "optimize_xor/xoropt.h"
#include "parallel/task_group.h"
#include "plan_store/plan_store.h"
#include "search_coeff/cert_store.h"
#include "search_coeff/certify.h"
#include "search_coeff/scenario_enum.h"
#include "search_coeff/search.h"
#include "scrub/journal.h"
#include "scrub/rate_limiter.h"
#include "scrub/scrub.h"
#include "serve/async_source.h"
#include "serve/overlap.h"
#include "serve/server.h"
#include "verify_plan/plan_verify.h"
#include "verify_plan/violation.h"
#include "parallel/thread_pool.h"
#include "workload/scenario_gen.h"
#include "workload/stripe.h"
#include "workload/verify.h"
