// Layer ladders for the traced run: each times one public function of one
// layer in isolation, fed with inputs captured from the workload that just
// ran, and reports CPU nanoseconds per call (median over batches).
#ifndef MSN_PERFBENCH_LADDERS_H_
#define MSN_PERFBENCH_LADDERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/harness.h"
#include "src/net/address.h"

namespace msn {

class IpStack;

namespace perfbench {

struct LadderInputs {
  // Datagram payload sizes the workload sent.
  std::vector<double> sizes;
  // The workload's event backlog (SimTally::pending_max): the event ladder
  // schedules against a queue this deep.
  uint64_t pending = 0;
  // A stack from the workload, still holding its FIB and flow cache, and
  // destinations it looked up: ones the cache holds and ones it does not.
  IpStack* stack = nullptr;
  std::vector<Ipv4Address> hit_dsts;
  std::vector<Ipv4Address> miss_dsts;
};

// Writes every ladder's ns-per-call into round.host under its layer name.
void RunLadders(const LadderInputs& in, Round& round);

}  // namespace perfbench
}  // namespace msn

#endif  // MSN_PERFBENCH_LADDERS_H_
