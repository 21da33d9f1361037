// Process-wide heap allocation tally. alloc_count.cpp replaces the global
// operator new/delete family of the program it is linked into and counts
// every allocation and its requested bytes; the simulator runs on one
// thread, so the tally is a plain pair of counters.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made since process start.
AllocTally alloc_tally();

inline AllocTally operator-(AllocTally a, AllocTally b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace perfbench
