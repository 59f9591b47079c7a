#include "runtime/kernel_backend.h"

#include <cstdlib>

#include "runtime/kernels.h"
#include "runtime/kernels_backends.h"

namespace serenity::runtime {

namespace {

// SERENITY_DISABLE_AVX2=1 (any non-empty value) forces the AVX2 backend to
// report unavailable, exercising the cpuid-fallback path on machines that do
// have AVX2 — the hook CI uses to verify the fallback actually runs.
bool Avx2DisabledByEnv() {
  const char* v = std::getenv("SERENITY_DISABLE_AVX2");
  return v != nullptr && v[0] != '\0';
}

bool CpuHasAvx2() {
#if defined(SERENITY_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// True when `backend`'s code is compiled into this binary.
bool BackendCompiled(Backend backend) {
  switch (backend) {
    case Backend::kReference:
    case Backend::kBlocked:
    case Backend::kAuto:
      return true;
    case Backend::kAvx2:
#if defined(SERENITY_HAVE_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

constexpr KernelBackend kReferenceTable = {
    Backend::kReference,
    &Conv2dPartial,
    &DepthwiseConv2dPartial,
    &DenseInto,
    &ConcatInto,
    &AddInto,
    &MulInto,
    &ReluInto,
    &BatchNormInto,
    &MaxPool2dInto,
    &AvgPool2dInto,
    &GlobalAvgPool2dInto,
};

constexpr KernelBackend kBlockedTable = {
    Backend::kBlocked,
    &blocked::Conv2dPartial,
    &blocked::DepthwiseConv2dPartial,
    &blocked::DenseInto,
    &blocked::ConcatInto,
    &blocked::AddInto,
    &blocked::MulInto,
    &blocked::ReluInto,
    &blocked::BatchNormInto,
    &blocked::MaxPool2dInto,
    &blocked::AvgPool2dInto,
    &blocked::GlobalAvgPool2dInto,
};

#if defined(SERENITY_HAVE_AVX2)
constexpr KernelBackend kAvx2Table = {
    Backend::kAvx2,
    &avx2::Conv2dPartial,
    &avx2::DepthwiseConv2dPartial,
    &avx2::DenseInto,
    &avx2::ConcatInto,
    &avx2::AddInto,
    &avx2::MulInto,
    &avx2::ReluInto,
    &avx2::BatchNormInto,
    &avx2::MaxPool2dInto,
    &avx2::AvgPool2dInto,
    &avx2::GlobalAvgPool2dInto,
};
#endif

}  // namespace

const char* ToString(Backend backend) {
  switch (backend) {
    case Backend::kReference:
      return "reference";
    case Backend::kBlocked:
      return "blocked";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<Backend> ParseBackend(std::string_view name) {
  if (name == "reference") return Backend::kReference;
  if (name == "blocked") return Backend::kBlocked;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "auto") return Backend::kAuto;
  return std::nullopt;
}

bool BackendAvailable(Backend backend) {
  switch (backend) {
    case Backend::kReference:
    case Backend::kBlocked:
    case Backend::kAuto:
      return true;
    case Backend::kAvx2:
      return BackendCompiled(backend) && CpuHasAvx2() && !Avx2DisabledByEnv();
  }
  return false;
}

Backend ResolveBackend(Backend requested) {
  switch (requested) {
    case Backend::kReference:
      return Backend::kReference;
    case Backend::kBlocked:
      return Backend::kBlocked;
    case Backend::kAvx2:
    case Backend::kAuto:
      // Fastest-first preference with the cpuid/env guard applied; an
      // unavailable ISA backend degrades to the portable blocked kernels,
      // never to a crash on an illegal instruction.
      return BackendAvailable(Backend::kAvx2) ? Backend::kAvx2
                                              : Backend::kBlocked;
  }
  return Backend::kReference;
}

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> out;
  if (BackendAvailable(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  out.push_back(Backend::kBlocked);
  out.push_back(Backend::kReference);
  return out;
}

std::int64_t PlacementAlignment(Backend backend) {
  switch (ResolveBackend(backend)) {
    case Backend::kReference:
      return static_cast<std::int64_t>(sizeof(float));
    case Backend::kBlocked:
    case Backend::kAvx2:
      return 32;  // one AVX2 vector, two baseline (16-byte) vectors
    case Backend::kAuto:
      break;  // unreachable: ResolveBackend never returns kAuto
  }
  return static_cast<std::int64_t>(sizeof(float));
}

const KernelBackend& GetKernelBackend(Backend backend) {
  switch (ResolveBackend(backend)) {
    case Backend::kReference:
      return kReferenceTable;
    case Backend::kBlocked:
      return kBlockedTable;
    case Backend::kAvx2:
#if defined(SERENITY_HAVE_AVX2)
      return kAvx2Table;
#else
      return kBlockedTable;
#endif
    case Backend::kAuto:
      break;  // unreachable: ResolveBackend never returns kAuto
  }
  return kReferenceTable;
}

}  // namespace serenity::runtime
