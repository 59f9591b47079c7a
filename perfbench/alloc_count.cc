// The benchmark binary's one replacement of global operator new/delete
// (testing/alloc_counter.h may be included by a single translation unit):
// every heap allocation is counted per thread, which is how the serving
// trace reads runtime.allocs_per_run and serve.allocs_per_request.
#include "testing/alloc_counter.h"

#include <cstdint>

namespace serenity::perfbench {

std::uint64_t ThreadAllocations() {
  return testing::ThreadAllocationCount();
}

}  // namespace serenity::perfbench
