#include "simd/dispatch.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#if __has_include(<asm/hwcap.h>)
#include <asm/hwcap.h>
#endif
#endif

#include "simd/das_avx2.h"
#include "simd/das_avx512.h"
#include "simd/das_neon.h"
#include "simd/das_scalar.h"
#include "simd/das_sse2.h"
#include "simd/pwl_row.h"
#include "simd/steer_row.h"

namespace us3d::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool cpu_supports(DasBackend backend) {
  // __builtin_cpu_supports is constant-time after the first call; call
  // __builtin_cpu_init() defensively so this is safe from static
  // initializers too.
  __builtin_cpu_init();
  switch (backend) {
    case DasBackend::kSSE2:
      return __builtin_cpu_supports("sse2") != 0;
    case DasBackend::kAVX2:
      return __builtin_cpu_supports("avx2") != 0;
    case DasBackend::kAVX512:
      // The double kernel is AVX-512F; the quantized kernel's vpmaddwd on
      // zmm is AVX-512BW. Any F+BW part also has avx2 — require all three
      // so the row functions (which may share the AVX2 bodies on a
      // degraded build) are always safe too.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx2") != 0;
    default:
      return false;
  }
}
#elif defined(__aarch64__) && defined(__linux__) && defined(HWCAP_ASIMD)
bool cpu_supports(DasBackend backend) {
  if (backend != DasBackend::kNEON) return false;
  // AdvSIMD is architecturally mandatory on AArch64, so this could just
  // return true — but availability is a runtime claim, so ask the
  // kernel's hwcap word instead of asserting the architecture manual.
  // qemu-user passes the emulated hwcaps through, so the CI lane
  // exercises this exact path.
  return (::getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
}
#else
bool cpu_supports(DasBackend backend) {
  // Other targets (32-bit ARM, non-Linux AArch64, ...): NEON capability
  // is a compile-time property of the target.
  return backend == DasBackend::kNEON && kDasNeonCompiled;
}
#endif

[[noreturn]] void throw_unavailable(DasBackend backend, const char* via) {
  throw std::runtime_error(
      std::string("us3d::simd: backend '") + backend_name(backend) +
      "' requested via " + via + " is not available on this host (" +
      (backend_compiled(backend) ? "compiled in, but the CPU lacks it"
                                 : "not compiled into this build") +
      ")");
}

}  // namespace

const char* backend_name(DasBackend backend) {
  switch (backend) {
    case DasBackend::kAuto:
      return "auto";
    case DasBackend::kScalar:
      return "scalar";
    case DasBackend::kSSE2:
      return "sse2";
    case DasBackend::kAVX2:
      return "avx2";
    case DasBackend::kAVX512:
      return "avx512";
    case DasBackend::kNEON:
      return "neon";
  }
  return "unknown";
}

std::optional<DasBackend> parse_backend(std::string_view name) {
  if (name == "auto") return DasBackend::kAuto;
  if (name == "scalar") return DasBackend::kScalar;
  if (name == "sse2") return DasBackend::kSSE2;
  if (name == "avx2") return DasBackend::kAVX2;
  if (name == "avx512") return DasBackend::kAVX512;
  if (name == "neon") return DasBackend::kNEON;
  return std::nullopt;
}

bool backend_compiled(DasBackend backend) {
  switch (backend) {
    case DasBackend::kScalar:
      return true;
    case DasBackend::kSSE2:
      return kDasSse2Compiled;
    case DasBackend::kAVX2:
      return kDasAvx2Compiled;
    case DasBackend::kAVX512:
      return kDasAvx512Compiled;
    case DasBackend::kNEON:
      return kDasNeonCompiled;
    case DasBackend::kAuto:
      return false;
  }
  return false;
}

bool backend_available(DasBackend backend) {
  if (backend == DasBackend::kScalar) return true;
  if (backend == DasBackend::kAuto) return false;
  return backend_compiled(backend) && cpu_supports(backend);
}

std::vector<DasBackend> available_backends() {
  std::vector<DasBackend> result;
  for (DasBackend b : {DasBackend::kAVX512, DasBackend::kAVX2,
                       DasBackend::kNEON, DasBackend::kSSE2}) {
    if (backend_available(b)) result.push_back(b);
  }
  result.push_back(DasBackend::kScalar);
  return result;
}

DasBackend resolve_backend(DasBackend requested) {
  if (requested != DasBackend::kAuto) {
    if (!backend_available(requested)) {
      throw_unavailable(requested, "BeamformOptions/PipelineConfig");
    }
    return requested;
  }
  // Re-read the environment on every resolve (it is one getenv per block
  // sweep, not per point) so forced-backend test processes and long-lived
  // services behave predictably.
  if (const char* env = std::getenv("US3D_SIMD");
      env != nullptr && *env != '\0') {
    const std::optional<DasBackend> forced = parse_backend(env);
    if (!forced) {
      throw std::runtime_error(
          std::string("us3d::simd: US3D_SIMD='") + env +
          "' is not a backend (want auto|scalar|sse2|avx2|avx512|neon)");
    }
    if (*forced != DasBackend::kAuto) {
      if (!backend_available(*forced)) throw_unavailable(*forced, "US3D_SIMD");
      return *forced;
    }
  }
  return available_backends().front();
}

DasRowFn das_row_fn(DasBackend backend) {
  switch (backend) {
    case DasBackend::kScalar:
      return &das_row_scalar;
    case DasBackend::kSSE2:
      // The SSE2 double body was 4.4x slower than scalar (no gather:
      // per-lane loads behind a mask), so SSE2 hosts run the reference.
      return &das_row_scalar;
    case DasBackend::kAVX2:
      return &das_row_avx2;
    case DasBackend::kAVX512:
      return &das_row_avx512;
    case DasBackend::kNEON:
      return &das_row_neon;
    case DasBackend::kAuto:
      break;
  }
  throw std::logic_error(
      "us3d::simd: das_row_fn wants a concrete backend; call "
      "resolve_backend first");
}

DasRowQFn das_row_q_fn(DasBackend backend) {
  switch (backend) {
    case DasBackend::kScalar:
      return &das_row_q_scalar;
    case DasBackend::kSSE2:
      return &das_row_q_sse2;
    case DasBackend::kAVX2:
      return &das_row_q_avx2;
    case DasBackend::kAVX512:
      return &das_row_q_avx512;
    case DasBackend::kNEON:
      return &das_row_q_neon;
    case DasBackend::kAuto:
      break;
  }
  throw std::logic_error(
      "us3d::simd: das_row_q_fn wants a concrete backend; call "
      "resolve_backend first");
}

PwlRowFn pwl_row_fn(DasBackend backend) {
  switch (backend) {
    case DasBackend::kScalar:
    case DasBackend::kSSE2:
    case DasBackend::kNEON:
      return &pwl_row_scalar;
    case DasBackend::kAVX2:
      return &pwl_row_avx2;
    case DasBackend::kAVX512:
      return &pwl_row_avx512;
    case DasBackend::kAuto:
      break;
  }
  throw std::logic_error(
      "us3d::simd: pwl_row_fn wants a concrete backend; call "
      "resolve_backend first");
}

SteerRowFn steer_row_fn(DasBackend backend) {
  switch (backend) {
    case DasBackend::kScalar:
    case DasBackend::kSSE2:
    case DasBackend::kNEON:
      return &steer_row_scalar;
    case DasBackend::kAVX2:
      return &steer_row_avx2;
    case DasBackend::kAVX512:
      return &steer_row_avx512;
    case DasBackend::kAuto:
      break;
  }
  throw std::logic_error(
      "us3d::simd: steer_row_fn wants a concrete backend; call "
      "resolve_backend first");
}

const char* precision_name(Precision precision) {
  switch (precision) {
    case Precision::kAuto:
      return "auto";
    case Precision::kDouble:
      return "double";
    case Precision::kQuantized:
      return "quantized";
  }
  return "unknown";
}

std::optional<Precision> parse_precision(std::string_view name) {
  if (name == "auto") return Precision::kAuto;
  if (name == "double") return Precision::kDouble;
  if (name == "quantized") return Precision::kQuantized;
  return std::nullopt;
}

Precision resolve_precision(Precision requested) {
  if (requested != Precision::kAuto) return requested;
  if (const char* env = std::getenv("US3D_PRECISION");
      env != nullptr && *env != '\0') {
    const std::optional<Precision> forced = parse_precision(env);
    if (!forced) {
      throw std::runtime_error(
          std::string("us3d::simd: US3D_PRECISION='") + env +
          "' is not a precision (want auto|double|quantized)");
    }
    if (*forced != Precision::kAuto) return *forced;
  }
  return Precision::kDouble;
}

}  // namespace us3d::simd
