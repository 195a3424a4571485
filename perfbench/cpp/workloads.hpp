// The three benchmark workloads (README.md has the why of each). Every
// workload builds its inputs from options.seed, measures for about
// options.seconds, checks the program's outputs and fills `report`.
#pragma once

#include "bench.hpp"

namespace perfbench {

void run_fabric_steady(const Options& options, Report& report);
void run_fleet_churn(const Options& options, Report& report);
void run_stream_loopback(const Options& options, Report& report);

}  // namespace perfbench
