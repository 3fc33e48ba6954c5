#include "perfbench/reference.h"

#include <memory>

namespace msn::perfbench {
namespace {

constexpr size_t kPending = 2048;  // Events waiting in the heap.

}  // namespace

ReferenceKernel::ReferenceKernel() {
  for (size_t i = 0; i < kPending; ++i) {
    Schedule();
  }
}

uint64_t ReferenceKernel::Next() {
  // xorshift64: a fixed sequence, independent of the simulator's RNG.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

void ReferenceKernel::Schedule() {
  const uint64_t at = now_ + (Next() >> 44);
  queue_.push({at, [this, at] {
                 const auto record = std::make_unique<uint64_t>(at ^ state_);
                 checksum_ += *record;
                 Schedule();
               }});
}

void ReferenceKernel::Run(uint64_t events) {
  for (uint64_t i = 0; i < events; ++i) {
    Event event = queue_.top();
    queue_.pop();
    now_ = event.at;
    event.fire();
  }
}

}  // namespace msn::perfbench
