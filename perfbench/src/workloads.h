// The benchmark's workloads. Each builds its inputs from the seed, drives
// the program's public API the way a production path does, checks the
// outputs, and fills `res` with the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
#pragma once

#include "common.h"

namespace perfbench {

void run_backfill(const options& opt, run_result& res);
void run_live(const options& opt, run_result& res);
void run_api(const options& opt, run_result& res);

/// Feed every correctness check a deliberately wrong result and confirm
/// it is rejected (and a right one accepted). Returns the process exit
/// code: 0 when every check has teeth.
int run_selftest();

}  // namespace perfbench
