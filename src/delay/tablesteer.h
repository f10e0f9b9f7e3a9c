// TABLESTEER delay engine (Sec. V): reference table + steering plane, all
// in hardware fixed point. Per (focal point, element): one table read, two
// adds, one rounding to the echo-sample index — exactly the datapath of the
// Fig. 4 block.
#ifndef US3D_DELAY_TABLESTEER_H
#define US3D_DELAY_TABLESTEER_H

#include <memory>
#include <vector>

#include "delay/engine.h"
#include "delay/reference_table.h"
#include "delay/steering.h"
#include "imaging/system_config.h"
#include "simd/steer_row.h"

namespace us3d::delay {

struct TableSteerConfig {
  fx::Format entry_format = fx::kRefDelay18;    ///< reference delays
  fx::Format coeff_format = fx::kCorrection18;  ///< steering corrections
  /// Accumulator for ref + cx + cy before rounding; one extra integer bit
  /// absorbs the worst-case correction swing.
  fx::Format sum_format{14, 5, true};

  /// The paper's 18-bit design point (uQ13.5 + sQ13.4).
  static TableSteerConfig bits18();
  /// The paper's 14-bit design point (uQ13.1 + sQ13.0).
  static TableSteerConfig bits14();
  /// Pathological 13-bit integer storage (Sec. VI-A: 33% of selections hit
  /// the extra +/-1 sample error).
  static TableSteerConfig bits13();

  std::string name_suffix() const;  ///< "-18b", "-14b", ...
};

/// The Fig. 4 datapath (table read + two adds + rounding) for one focal
/// point, on the fx::Value model. Shared by TableSteerEngine and the
/// synthetic-aperture engine, which runs the same datapath against
/// whichever origin's table is active. This is the readable spec the
/// batched steer_compute_block is pinned against.
void steer_compute_point(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const TableSteerConfig& ts_config,
                         const imaging::FocalPoint& fp,
                         std::span<std::int32_t> out);

/// The same datapath on raw words: every alignment shift and clamp limit
/// of steer_compute_point's chain (add, add, round_to_int half-up, clamp
/// at 0) is derived once from a TableSteerConfig, and index() returns
/// exactly what that chain returns for the same words. The derived
/// parameters are also what the steer-row kernels read (simd/dispatch.h),
/// including whether the formats fit their int32 lanes.
class SteerDatapath {
 public:
  explicit SteerDatapath(const TableSteerConfig& config);

  const TableSteerConfig& config() const { return config_; }
  const simd::SteerRowParams& row_params() const { return params_; }

  /// Echo-sample index of ref (entry_format) + cx + cy (coeff_format).
  std::int32_t index(std::int64_t ref, std::int64_t cx,
                     std::int64_t cy) const {
    return simd::steer_index(params_, ref, cx, cy);
  }

 private:
  TableSteerConfig config_;
  simd::SteerRowParams params_;
};

/// Reusable per-block correction rows (grown once, then reused).
struct SteerBlockScratch {
  std::vector<std::int32_t> cx;  ///< [element column][point]
  std::vector<std::int32_t> cy;  ///< [element row][point]
};

/// The datapath applied to a whole block, element-outer, on raw words.
/// The correction plane is separable, so the block gathers one
/// x-correction row per element column and one y-correction row per
/// element row through the checked accessors, and every element row
/// reuses them. On a uniform-depth block (every kNappeByNappe block) the
/// reference entry is one word per element, and each element row runs
/// through the resolved steer-row kernel (simd::SteerRowFn, resolved per
/// block like the other row kernels, so US3D_SIMD pins it). A scanline
/// block mixes depths: it reads the entry per point and runs
/// SteerDatapath::index, the scalar reference. `table` and `corrections`
/// must hold the formats `datapath` was built for.
void steer_compute_block(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const SteerDatapath& datapath,
                         const imaging::FocalBlock& block, DelayPlane& plane,
                         SteerBlockScratch& scratch);

class TableSteerEngine final : public DelayEngine {
 public:
  TableSteerEngine(const imaging::SystemConfig& config,
                   const TableSteerConfig& ts_config = TableSteerConfig::bits18());

  std::string name() const override;
  int element_count() const override;
  /// Copies the steering coefficients and *shares* the immutable reference
  /// table (shared_ptr<const>): the table is the paper's headline memory
  /// cost, and N worker clones reading one copy is exactly the reuse the
  /// hardware design streams for. No table bytes are duplicated per clone.
  std::unique_ptr<DelayEngine> clone() const override;

  const ReferenceDelayTable& reference_table() const { return *table_; }
  const SteeringCorrections& corrections() const { return corrections_; }
  const TableSteerConfig& config() const { return datapath_.config(); }

 protected:
  /// TABLESTEER assumes a constant origin on the probe's vertical axis
  /// (Sec. V: "we assume a constant origin O across frames"); begin_frame
  /// rejects anything else.
  void do_begin_frame(const Vec3& origin) override;
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override;
  /// Native block path: steer_compute_block — separable correction rows
  /// gathered once per block, and on uniform-depth (nappe) blocks one
  /// table read per element and a SIMD steer row per element.
  void do_compute_block(const imaging::FocalBlock& block,
                        DelayPlane& plane) override;

 private:
  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  SteerDatapath datapath_;  // holds the engine's TableSteerConfig
  /// Immutable after construction; shared by every clone of this engine.
  std::shared_ptr<const ReferenceDelayTable> table_;
  SteeringCorrections corrections_;
  SteerBlockScratch block_rows_;  // per-block correction rows, reused
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_TABLESTEER_H
