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
/// exactly what that chain returns for the same words.
class SteerDatapath {
 public:
  explicit SteerDatapath(const TableSteerConfig& config);

  const TableSteerConfig& config() const { return config_; }

  /// Echo-sample index of ref (entry_format) + cx + cy (coeff_format).
  std::int32_t index(std::int64_t ref, std::int64_t cx,
                     std::int64_t cy) const {
    const std::int64_t sum0 = fx::saturate_raw(
        fx::align_half_up((ref << ref_align_) + (cx << cx_align_),
                          sum0_shift_),
        sum_lo_, sum_hi_);
    const std::int64_t sum1 = fx::saturate_raw(
        fx::shift_right_half_up((sum0 << sum1_shift_) + (cy << cy_align_),
                                sum1_shift_),
        sum_lo_, sum_hi_);
    const std::int64_t idx = fx::shift_right_half_up(sum1, sum_frac_);
    return static_cast<std::int32_t>(idx < 0 ? 0 : idx);
  }

 private:
  TableSteerConfig config_;
  // First adder: ref and cx aligned on the finer of their grids, then
  // moved to the sum grid (< 0: left shift).
  int ref_align_ = 0;
  int cx_align_ = 0;
  int sum0_shift_ = 0;
  // Second adder: sum0 and cy aligned on the finer grid, then rounded
  // back to the sum grid (sum0's alignment equals that shift).
  int cy_align_ = 0;
  int sum1_shift_ = 0;
  int sum_frac_ = 0;  // sum grid -> integer echo-sample index
  std::int64_t sum_lo_ = 0;
  std::int64_t sum_hi_ = 0;
};

/// The datapath applied to a whole block, element-outer, on raw words.
/// `table` and `corrections` must hold the formats `datapath` was built
/// for. `cy_scratch` is reusable per-point y-correction storage (grown
/// once).
void steer_compute_block(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const SteerDatapath& datapath,
                         const imaging::FocalBlock& block, DelayPlane& plane,
                         std::vector<std::int64_t>& cy_scratch);

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
  /// Native block path: element-outer sweep on raw words (SteerDatapath)
  /// with the per-row y-correction gathered once per row and — on
  /// uniform-depth blocks, i.e. every kNappeByNappe block — the
  /// reference-table entry read once per element instead of once per
  /// (element, point).
  void do_compute_block(const imaging::FocalBlock& block,
                        DelayPlane& plane) override;

 private:
  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  SteerDatapath datapath_;  // holds the engine's TableSteerConfig
  /// Immutable after construction; shared by every clone of this engine.
  std::shared_ptr<const ReferenceDelayTable> table_;
  SteeringCorrections corrections_;
  std::vector<std::int64_t> block_cy_;  // per-block y-corrections, reused
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_TABLESTEER_H
