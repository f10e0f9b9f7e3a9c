// Backend selection for the explicit-SIMD row kernels: the delay-and-sum
// (DAS) rows, TABLEFREE's PWL receive rows and TABLESTEER's steer rows.
//
// Every backend implements the same row contract (DasRowFn): sweep one
// element's delay row against that element's echo stream and fold the
// apodization-weighted samples into the per-point partial sums,
//
//   acc[p] += weight * (0 <= delays[p] < samples ? echo[delays[p]] : 0)
//
// for p in [0, points). The accumulators are *lane-wise*: each focal point
// owns one double partial sum, the vector lanes map 1:1 onto consecutive
// points, and elements are folded in ascending flat-index order by the
// caller — there is no cross-lane reduction anywhere, so every backend
// performs the exact same sequence of IEEE double multiply-adds per point
// and produces bit-identical output to the scalar reference (the parity
// property tests in tests/beamform/test_das_kernel.cpp pin this).
//
// The *quantized* row contract (DasRowQFn) is the fixed-point mirror of
// the same sweep, for the int16 end-to-end pipeline (beamform/quantized.h):
//
//   acc[p] += (weight * echo[delays[p]]) >> kQuantWeightFracBits
//
// with int16 echo samples, int16 delay indices, a uQ1.14 weight word
// (weight in [0, 2^15)) and int32 accumulators. Unlike the double
// contract, the window clamp is *not* the kernel's job: delay rows are
// pre-sanitized by delay::QuantizedDelayPlane, which maps every
// out-of-window index to the sentinel `samples`, and echo rows carry at
// least two zeroed padding entries at [samples, samples+1] (the
// beamform::QuantizedEchoBuffer layout), so the sentinel reads an exact
// zero. That is what lets every integer body run compare-free unmasked
// sweeps — on AVX2 the whole inner loop is cvt + gather + widen + mullo +
// shift + add, roughly half the double kernel's per-point instruction
// count, which is where the quantized path's throughput advantage comes
// from. Every operation is exact two's-complement integer arithmetic (the
// >> is an arithmetic shift, well-defined in C++20), so all integer
// backends are bit-identical to the integer scalar reference *by
// construction* — there is no floating-point ordering to preserve, only
// the same integer result per point. The product fits int32 (|s| <= 2^15,
// w < 2^15 → |w*s| < 2^30) and each shifted term has magnitude <= 2^16,
// so the int32 accumulator is safe for any active-element count the
// kernel layer admits (< 2^15 rows).
//
// The *PWL receive-row* contract (PwlRowFn) is the delay-generation side:
// TABLEFREE's fixed-point receive leg for one element over one focal
// block (delay::TableFreeEngine's block path),
//
//   q[p]   = clamp((dx*dx + dy*dy) + dz*dz, x_min, x_max),
//            (dx, dy, dz) = position[p] - element
//   seg[p] = the unique i with boundary[i] <= q[p] < boundary[i+1]
//   rx[p]  = FixedPwlSqrt's raw datapath at (int64(q[p]), seg[p])
//   row[p] = int32(shift_right_half_up(tx[p] + rx[p], result_frac_bits))
//
// The segment is a pure function of q: PwlTracker::advance(q) lands on
// that i from any starting segment, charging exactly |seg[p] - seg[p-1]|
// steps (seg[-1] is the tracker's segment before the row). So a row has
// no serial dependence, and the tracker statistics are rebuilt from the
// per-point segments — `points` evaluations, sum |Δseg| steps, max |Δseg|
// — which the caller charges in bulk (PwlTracker::charge_run). Vector
// bodies map lanes to consecutive points of the one element; the q sum
// keeps the scalar association order and is built without FMA
// (-ffp-contract=off), so q, and everything after it, is bit-identical.
// Segments are found without gathers: a chunk of lanes whose q all lie
// in a window of segments [lo, hi] small enough for one register gets
// its per-lane segment as lo plus a count of broadcast boundary compares,
// and the segment's words by an in-register permute. The window is
// sized per chunk: it is kept while the chunks' q stay inside it, grown
// over a new chunk's segments while the union still fits (a smooth
// nappe row loads it once or twice), and re-centred otherwise (a
// scanline row's depth sweep crosses most of the table, a register's
// worth at a time). A vector body only ever hands points back to the
// scalar reference, which raises every contract violation itself (q
// outside the domain — NaN; segment in range; dx within the
// multiplier): a chunk wider than a register, the rest of a row from a
// chunk with a NaN q, every row of a table whose operands the
// construction-time bounds (PwlRowTable::vector_bounded) do not cover,
// and the points % lane-width tail all go to the scalar reference.
//
// The *steer-row* contract (SteerRowFn) is TABLESTEER's Fig. 4 datapath
// for one element over one uniform-depth (nappe) block
// (delay::steer_compute_block), on words the caller gathered through the
// checked table and correction accessors:
//
//   row[p] = steer_index(ref, cx[p], cy[p])
//
// with one reference word per element (the block's depth is constant),
// the element column's x-correction row and the element row's
// y-correction row. steer_index (simd/steer_row.h, which
// delay::SteerDatapath::index calls) is the spec: two aligned adds, each
// rounded half-up onto the sum grid and saturated, one half-up rounding
// to the integer echo-sample index, clamped at 0, on int64 words. The
// vector bodies run in int32 lanes (AVX-512F 16, AVX2 8) on configs
// whose adders never round — each only shifts its operands left onto
// the sum grid, as at the paper's 18/14/13-bit design points — and whose
// intermediates all fit a lane: SteerRowParams::vector_bounded is
// derived once from the formats, and a config it does not cover runs the
// scalar reference for the whole row. Half-up rounding is symmetric in
// sign (fx::shift_right_half_up rounds magnitudes), but the final one
// may floor (sum + half) instead: a negative sum reaches an index <= 0
// either way, and the clamp makes both 0. There is no per-point check to
// hand back (the accessors checked every index when the rows were
// gathered), so the only points a bounded vector body leaves to the
// scalar reference are the points % lane-width tail.
//
// Selection is two-stage:
//  - compile time: each backend TU (das_sse2.cpp, das_avx2.cpp, ...) is
//    built with its own -m<isa> flag on x86 and exports a "compiled with
//    real intrinsics" flag; on other architectures the TU degrades to a
//    scalar body and reports itself unavailable.
//  - run time: resolve_backend() intersects the compiled set with what the
//    host CPU actually supports, honouring an explicit request
//    (BeamformOptions::simd / PipelineConfig::simd) first and the
//    US3D_SIMD environment variable (scalar|sse2|avx2|avx512|neon|auto)
//    second. Forcing a backend that is not available fails loudly instead
//    of silently falling back — that is what lets CI pin every dispatch
//    path.
//
// Precision is the second, orthogonal knob: kDouble runs the IEEE double
// contract, kQuantized the integer contract. resolve_precision() mirrors
// resolve_backend(): explicit request first, then the US3D_PRECISION
// environment variable (double|quantized|auto), then the double default —
// which is what lets CI re-run the whole suite with
// US3D_PRECISION=quantized exactly like a forced-backend cell.
#ifndef US3D_SIMD_DISPATCH_H
#define US3D_SIMD_DISPATCH_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace us3d::simd {

enum class DasBackend {
  kAuto,    ///< pick the best available (after the US3D_SIMD override)
  kScalar,  ///< portable reference; always available
  kSSE2,    ///< 4-wide x86 (baseline on x86-64)
  kAVX2,    ///< 8-wide x86 with masked gather
  kAVX512,  ///< 16-wide x86 (AVX-512F k-masked gather)
  kNEON,    ///< aarch64 AdvSIMD (2-wide f64 row, native 8-wide int16 row)
};

/// Row-sweep kernel: fold one element's weighted samples into the
/// per-point accumulators (see the contract at the top of this header).
using DasRowFn = void (*)(const float* echo, std::int64_t samples,
                          const std::int32_t* delays, double weight,
                          double* acc, int points);

/// Fraction bits of the quantized apodization-weight word (uQ1.14): the
/// arithmetic right-shift every integer backend applies to each
/// weight*sample product before accumulating. Part of the DasRowQFn
/// contract — the kernel layer quantizes weights into exactly this format.
inline constexpr int kQuantWeightFracBits = 14;

/// Largest acquisition window the quantized path can address: delay
/// indices are int16 and the out-of-window sentinel is `samples` itself,
/// so both in-window indices (0..samples-1) and the sentinel must fit —
/// samples <= 32767. The quantized containers (delay::QuantizedDelayPlane,
/// beamform::QuantizedEchoBuffer) reject longer windows as a precondition
/// instead of silently dropping samples.
inline constexpr std::int64_t kQuantMaxSamples = 32767;

/// Integer row-sweep kernel for the quantized pipeline: int16 echo
/// samples, *sanitized* int16 delay indices in [0, samples] (the value
/// `samples` is the out-of-window sentinel), uQ1.14 weight word, int32
/// lane-wise accumulators (see the contract above). Rows of `echo` must
/// carry at least two zeroed entries at [samples, samples+1]: the
/// sentinel reads the first, and the AVX2/AVX-512 bodies gather 32-bit
/// words at 16-bit indices so the entry after the one addressed is also
/// touched (beamform::QuantizedEchoBuffer guarantees both).
using DasRowQFn = void (*)(const std::int16_t* echo, std::int64_t samples,
                           const std::int16_t* delays, std::int32_t weight,
                           std::int32_t* acc, int points);

/// One PWL segment table as the receive-row kernels read it (built by
/// delay::FixedPwlSqrt::row_table(); a view, valid while its owners
/// live): per-segment SoA words plus the datapath's construction-time
/// shifts and clamp limits.
struct PwlRowTable {
  const double* boundary = nullptr;       ///< segment starts (tracker compare)
  const std::int64_t* x_start = nullptr;  ///< integer segment anchors
  const std::int64_t* slope = nullptr;    ///< c1 raw words
  const std::int64_t* value = nullptr;    ///< c0 raw words, adder grid
  std::size_t count = 0;                  ///< segments
  double x_min = 0.0;                     ///< q domain (the tracker's)
  double x_max = 0.0;
  std::int64_t dx_max = 0;  ///< multiplier input: -dx_max-1 <= dx <= dx_max
  int product_shift = 0;    ///< c1*dx grid -> product grid (< 0: left)
  int sum_shift = 0;        ///< adder grid -> result grid
  int result_frac_bits = 0;  ///< final delay = result word >> this, half-up
  std::int64_t product_lo = 0;
  std::int64_t product_hi = 0;
  std::int64_t result_lo = 0;
  std::int64_t result_hi = 0;
  /// Operand bounds, checked once when the table is built: x_max < 2^31,
  /// integer anchors in [0, 2^31), c1 words in [0, 2^31), c0 words >= 0,
  /// product_shift >= 0 and dx_max >= 2^31 - 1.
  /// Then int64(q) and dx fit int32 lanes (32x32->64 multiplies), every
  /// intermediate — and every result word, transmit legs included — is
  /// non-negative (logical shifts round half-up), and no per-point check
  /// can fail except the q domain. Vector bodies run only when set.
  bool vector_bounded = false;
};

/// One element's receive row over one block (see the contract above).
struct PwlRowArgs {
  const double* x = nullptr;  ///< block positions, sample units (SoA)
  const double* y = nullptr;
  const double* z = nullptr;
  int points = 0;
  double ex = 0.0;  ///< element position, sample units
  double ey = 0.0;
  double ez = 0.0;
  /// Transmit legs: raw result words of the same table, one per point.
  const std::int64_t* tx = nullptr;
  std::size_t segment = 0;  ///< the element tracker's segment before the row
};

struct PwlRowResult {
  std::size_t segment = 0;  ///< segment of the last point
  std::int64_t steps = 0;   ///< sum over the row of |Δsegment|
  int max_step = 0;         ///< largest single |Δsegment|
  int vector_points = 0;    ///< points the vector body handled
};

/// Receive-row kernel: writes row[0, points) and returns the tracker's
/// final segment and step statistics. Throws ContractViolation exactly
/// where the scalar reference does.
using PwlRowFn = PwlRowResult (*)(const PwlRowTable& table,
                                  const PwlRowArgs& args, std::int32_t* row);

/// TABLESTEER's datapath as the steer-row kernels read it (built by
/// delay::SteerDatapath from a TableSteerConfig): the alignment shifts
/// and the sum word's clamp limits of steer_index.
struct SteerRowParams {
  int ref_align = 0;   ///< first adder: ref onto the finer operand grid
  int cx_align = 0;    ///< first adder: cx onto the same grid
  int sum0_shift = 0;  ///< that grid -> sum grid (< 0: exact left shift)
  int cy_align = 0;    ///< second adder: cy onto the finer grid
  int sum1_shift = 0;  ///< that grid -> sum grid (>= 0)
  int sum_frac = 0;    ///< sum grid -> integer echo-sample index
  std::int64_t sum_lo = 0;
  std::int64_t sum_hi = 0;
  /// Set when neither adder rounds (sum0_shift <= 0, sum1_shift == 0),
  /// every shift is below 31, and every intermediate — each adder's sum
  /// and the sum word plus the final rounding half — stays below 2^31 in
  /// magnitude for any words of the formats (entry words for ref,
  /// coefficient words for cx and cy). Then int32 lanes compute exactly
  /// what steer_index computes on int64 words. Vector bodies run only
  /// when set; the paper's 18/14/13-bit design points all are.
  bool vector_bounded = false;
};

/// One element's row over a uniform-depth block (see the contract
/// above): reads cx[0, points) and cy[0, points), writes row[0, points),
/// returns the points the vector body computed (0 for the scalar
/// reference).
using SteerRowFn = int (*)(const SteerRowParams& params, std::int32_t ref,
                           const std::int32_t* cx, const std::int32_t* cy,
                           std::int32_t* row, int points);

/// Arithmetic precision of the beamform hot path.
enum class Precision {
  kAuto,       ///< resolve via US3D_PRECISION, default double
  kDouble,     ///< exact IEEE double delay-and-sum (the reference)
  kQuantized,  ///< int16 end-to-end fixed-point path (beamform/quantized.h)
};

/// Lower-case stable name ("auto", "scalar", "sse2", "avx2", "avx512",
/// "neon").
const char* backend_name(DasBackend backend);

/// Inverse of backend_name(); nullopt for anything unrecognised.
std::optional<DasBackend> parse_backend(std::string_view name);

/// True when the backend's TU was built with its real intrinsics (compile
/// time only — says nothing about the host CPU). Scalar is always true.
bool backend_compiled(DasBackend backend);

/// True when the backend is compiled in AND the host CPU supports it.
bool backend_available(DasBackend backend);

/// The concrete backends usable on this host, best first. Always ends
/// with kScalar; never contains kAuto.
std::vector<DasBackend> available_backends();

/// Resolves a request to a concrete backend. A non-auto request must be
/// available (throws std::runtime_error naming the backend otherwise —
/// forcing never falls back silently). kAuto honours US3D_SIMD when set
/// (unknown values and unavailable backends also throw), else picks the
/// best available. The environment is re-read on every call so tests and
/// long-lived processes see changes.
DasBackend resolve_backend(DasBackend requested);

/// The row kernel for a concrete (resolved, non-auto) backend.
DasRowFn das_row_fn(DasBackend backend);

/// The integer row kernel for a concrete (resolved, non-auto) backend.
/// Every backend has one (integer arithmetic needs no ISA to be exact;
/// backends without a vector int body run the scalar reference).
DasRowQFn das_row_q_fn(DasBackend backend);

/// The PWL receive-row kernel for a concrete (resolved, non-auto)
/// backend. AVX2 and AVX-512 have vector bodies; scalar, SSE2 and NEON
/// run the scalar reference.
PwlRowFn pwl_row_fn(DasBackend backend);

/// The TABLESTEER steer-row kernel for a concrete (resolved, non-auto)
/// backend. AVX2 and AVX-512 have int32-lane bodies; scalar, SSE2 and
/// NEON run the scalar reference.
SteerRowFn steer_row_fn(DasBackend backend);

/// Lower-case stable name ("auto", "double", "quantized").
const char* precision_name(Precision precision);

/// Inverse of precision_name(); nullopt for anything unrecognised.
std::optional<Precision> parse_precision(std::string_view name);

/// Resolves a precision request to a concrete precision. An explicit
/// request wins; kAuto honours US3D_PRECISION when set (unknown values
/// throw std::runtime_error), else picks kDouble. Both concrete
/// precisions run on every host — there is no availability lattice — but
/// the same explicit-beats-environment precedence as resolve_backend()
/// keeps the two knobs predictable side by side. Re-reads the environment
/// on every call.
Precision resolve_precision(Precision requested);

}  // namespace us3d::simd

#endif  // US3D_SIMD_DISPATCH_H
