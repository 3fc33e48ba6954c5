// The reference kernel: a fixed piece of CPU work, in plain standard C++ and
// sharing no code with the simulator, that a round times between slices of
// its workload. Its speed tells how fast the host ran this round's process
// while the workload ran, so run.py can divide the host's speed out of the
// workload's throughput. See "Noise" in perfbench/README.md.
#ifndef MSN_PERFBENCH_REFERENCE_H_
#define MSN_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace msn::perfbench {

// A miniature discrete-event loop, shaped like the simulator's event engine:
// a binary heap of timed callbacks, each of which allocates a small record
// and schedules its successor, so the heap stays kPending deep. The same
// events run in the same order on every host and in every round.
class ReferenceKernel {
 public:
  ReferenceKernel();
  // Runs the next `events` events.
  void Run(uint64_t events);

 private:
  struct Event {
    uint64_t at;
    std::function<void()> fire;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return a.at > b.at; }
  };

  void Schedule();
  uint64_t Next();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  uint64_t now_ = 0;
  uint64_t state_ = 0x9e3779b97f4a7c15ull;
  uint64_t checksum_ = 0;
};

}  // namespace msn::perfbench

#endif  // MSN_PERFBENCH_REFERENCE_H_
