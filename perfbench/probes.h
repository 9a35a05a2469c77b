// Per-layer probes of the traced run: fixed, workload-independent work
// timed around single calls into the library's public functions.
//
//   nn       op-by-op replay of the defended variant's forward under
//            NoGradGuard from a replica's named_parameters(), at batch 1 and
//            64, plus the graph forward and backward at batch 32 (one EOT
//            step's n*K). The replay's logits must be bitwise equal to
//            LisaCnn::logits on the same batch.
//   linalg   linalg::sgemm on conv2's GEMM shape, at batch 1 and 64.
//   defense  the median5 input transform, and the blur's share of a
//            batch-1 forward.
//   net      the net/wire.h codecs, per call.
//   attack   per-sample affine_warp and nps_loss forward+backward, and the
//            marginal cost of one rp2_attack iteration.
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/common.h"

namespace perfbench {

/// Runs every probe, adding its metrics to `out`. Returns false, with a
/// reason in `error`, when a correctness check fails.
bool run_probes(std::uint64_t seed, MetricMap& out, std::string& error);

}  // namespace perfbench
