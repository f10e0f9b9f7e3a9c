// TABLESTEER's reference delay table (Sec. V-A, Fig. 3a): the two-way
// delays for the *unsteered* line of sight (points R on the Z axis), one
// entry per (element, depth). With the transmit origin on the probe's
// vertical axis the table is mirror-symmetric in x and y, so only one
// quadrant of element columns/rows is stored (2.5e6 entries instead of
// 10e6 for the paper system). Entries are held in hardware fixed-point
// format (unsigned Q13.5 by default).
#ifndef US3D_DELAY_REFERENCE_TABLE_H
#define US3D_DELAY_REFERENCE_TABLE_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "imaging/system_config.h"
#include "probe/directivity.h"
#include "probe/transducer.h"

namespace us3d::delay {

struct ReferenceTableConfig {
  fx::Format entry_format = fx::kRefDelay18;
  /// When set, entries whose element cannot see the on-axis point (angle
  /// beyond the directivity cutoff) are counted as prunable (Fig. 3a).
  std::optional<probe::Directivity> pruning{};
  /// Transmit-origin displacement along the probe axis (negative = virtual
  /// source behind the probe). Keeping the origin on the axis preserves
  /// the X/Y folding (Sec. V-A: the table stays quarter-size as long as
  /// the origin is "vertically aligned" with the transducer centre);
  /// synthetic-aperture modes build one table per origin (see
  /// delay/synthetic_aperture.h).
  double origin_z = 0.0;
};

class ReferenceDelayTable {
 public:
  ReferenceDelayTable(const imaging::SystemConfig& config,
                      const ReferenceTableConfig& table_config = {});

  /// Folded quadrant dimensions.
  int quad_x() const { return quad_x_; }
  int quad_y() const { return quad_y_; }
  int depths() const { return depths_; }

  /// Quadrant index for a full-grid element column/row index. Mirror
  /// columns share an index because |x| matches; qx = 0 is the outermost
  /// column (largest |x|), matching the build loop.
  int fold_x(int ix) const {
    US3D_EXPECTS(ix >= 0 && ix < probe_.elements_x());
    return std::min(ix, probe_.elements_x() - 1 - ix);
  }
  int fold_y(int iy) const {
    US3D_EXPECTS(iy >= 0 && iy < probe_.elements_y());
    return std::min(iy, probe_.elements_y() - 1 - iy);
  }

  /// Fixed-point reference delay (two-way, in echo samples) for full-grid
  /// element (ix, iy) at depth index i_depth.
  fx::Value entry(int ix, int iy, int i_depth) const;
  fx::Value entry_quad(int qx, int qy, int i_depth) const;
  /// The raw entry_format word entry() wraps, for raw-word datapaths.
  std::int64_t entry_raw(int ix, int iy, int i_depth) const {
    return raw_[index(fold_x(ix), fold_y(iy), i_depth)];
  }
  double entry_real(int ix, int iy, int i_depth) const;

  /// Exact (double) value the entry was quantized from.
  double exact_entry_samples(int ix, int iy, int i_depth) const;

  /// Transmit origin this table was built for.
  Vec3 origin() const { return Vec3{0.0, 0.0, origin_z_}; }

  std::int64_t entry_count() const;
  double storage_bits() const;

  /// Entries flagged prunable by the directivity model, and the fraction
  /// of the folded table they represent.
  std::int64_t prunable_count() const { return prunable_; }
  double prunable_fraction() const;
  bool is_prunable(int qx, int qy, int i_depth) const;

  const fx::Format& entry_format() const { return format_; }

 private:
  std::size_t index(int qx, int qy, int i_depth) const {
    US3D_EXPECTS(qx >= 0 && qx < quad_x_);
    US3D_EXPECTS(qy >= 0 && qy < quad_y_);
    US3D_EXPECTS(i_depth >= 0 && i_depth < depths_);
    return (static_cast<std::size_t>(qx) * static_cast<std::size_t>(quad_y_) +
            static_cast<std::size_t>(qy)) *
               static_cast<std::size_t>(depths_) +
           static_cast<std::size_t>(i_depth);
  }

  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  fx::Format format_;
  double origin_z_ = 0.0;
  int quad_x_ = 0;
  int quad_y_ = 0;
  int depths_ = 0;
  std::vector<std::int32_t> raw_;       // fixed-point words
  std::vector<bool> prunable_mask_;
  std::int64_t prunable_ = 0;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_REFERENCE_TABLE_H
