// Code-latency measurement harness — the methodology behind Table 1 and
// Figure 6.
//
// "In our experiments, the CCPs specify that messages are delivered in FIFO
// order, are not fragmented, and no failure or other membership events
// occur. ... We ran each test 10,000 times and calculated the average.
// Since our experiments only measure code latencies, and do not require
// system calls, thread switches, or network communication, the variance in
// the reported numbers is negligible."
//
// Two stacks (sender rank 0, receiver rank 1) are wired back to back with no
// network.  Each repetition is staged through four separately-timed phases:
//
//   Down Stack      application cast -> bottom-of-stack event (or bypass
//                   CCP + fused updates for MACH/HAND)
//   Down Transport  marshal to wire + gather into the datagram
//   Up Transport    datagram parse/unmarshal
//   Up Stack        bottom-of-stack event -> application delivery
//
// matching the four rows of Table 1.

#ifndef ENSEMBLE_SRC_PERF_LATENCY_HARNESS_H_
#define ENSEMBLE_SRC_PERF_LATENCY_HARNESS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/app/endpoint.h"

namespace ensemble {

struct PhaseLatency {
  double down_stack_ns = 0;
  double down_trans_ns = 0;
  double up_trans_ns = 0;
  double up_stack_ns = 0;
  double total_ns() const {
    return down_stack_ns + down_trans_ns + up_trans_ns + up_stack_ns;
  }
};

struct LatencyConfig {
  StackMode mode = StackMode::kFunctional;
  std::vector<LayerId> layers = TenLayerStack();
  size_t msg_size = 4;
  int reps = 10000;
  LayerParams params;  // Benches disable loopback and stability noise below.
};

// Per-message code latency averaged over `reps` send/receive rounds.
PhaseLatency MeasureCodeLatency(const LatencyConfig& config);

// The cost of evaluating the composed CCP alone (the run-time bypass switch;
// paper: "checking the CCPs takes only about 3 us").
double MeasureCcpCheckNs(const std::vector<LayerId>& layers, int reps = 100000);

// Runs `rounds` complete send/receive round-trips through a stack pair (used
// under the perf-counter benches of Table 2a).  Returns deliveries observed.
size_t RunSendRecvRounds(StackMode mode, const std::vector<LayerId>& layers, int rounds,
                         size_t msg_size = 4);

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_PERF_LATENCY_HARNESS_H_
