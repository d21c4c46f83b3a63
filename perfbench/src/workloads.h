// The benchmark workloads.  Each runs its set-up, measures for
// config.seconds, checks its outputs, and records its end-to-end metrics
// (and, on a traced run, its per-layer metrics) into `out`.
#pragma once

#include "harness.h"

namespace perfbench {

void run_census(const Config& config, Tracer& tracer, Outcome& out);
void run_serve_churn(const Config& config, Tracer& tracer, Outcome& out);

}  // namespace perfbench
