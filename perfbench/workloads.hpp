// The benchmark's workloads. Each runs in its own process (the autotuner
// table and the serving metrics are process-wide state) and reports into
// one Report.
#pragma once

#include "harness.hpp"

namespace pb {

/// zoo-mlp-l: offline closed-loop inference of the paper's MLP-L through
/// BatchRunner::forward_all; no serving layer runs.
void run_zoo(const Args& args, Report& report);

/// sfc-wire: a FINN-style fully binarized MLP served over a loopback
/// TcpFrontend; traced runs add the five-rung serving depth ladder.
void run_sfc_wire(const Args& args, Report& report);

/// wdm-mapped: MLP-S's binary fc2 programmed onto the optical
/// (EinsteinBarrier) executor and served by an in-process Gateway.
void run_wdm_mapped(const Args& args, Report& report);

}  // namespace pb
