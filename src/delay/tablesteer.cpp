#include "delay/tablesteer.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace us3d::delay {

TableSteerConfig TableSteerConfig::bits18() {
  return TableSteerConfig{
      .entry_format = fx::kRefDelay18,
      .coeff_format = fx::kCorrection18,
      .sum_format = fx::Format{14, 5, true},
  };
}

TableSteerConfig TableSteerConfig::bits14() {
  return TableSteerConfig{
      .entry_format = fx::kRefDelay14,
      .coeff_format = fx::kCorrection14,
      .sum_format = fx::Format{14, 1, true},
  };
}

TableSteerConfig TableSteerConfig::bits13() {
  return TableSteerConfig{
      .entry_format = fx::Format{13, 0, false},
      .coeff_format = fx::Format{13, 0, true},
      .sum_format = fx::Format{14, 0, true},
  };
}

std::string TableSteerConfig::name_suffix() const {
  return "-" + std::to_string(entry_format.total_bits()) + "b";
}

void steer_compute_point(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const TableSteerConfig& ts_config,
                         const imaging::FocalPoint& fp,
                         std::span<std::int32_t> out) {
  const int nx = probe.elements_x();
  const int ny = probe.elements_y();
  for (int iy = 0; iy < ny; ++iy) {
    const fx::Value cy = corrections.y_correction(iy, fp.i_phi);
    for (int ix = 0; ix < nx; ++ix) {
      const fx::Value ref = table.entry(ix, iy, fp.i_depth);
      const fx::Value cx = corrections.x_correction(ix, fp.i_theta, fp.i_phi);
      // Two adders per element in the Fig. 4 block; the second performs
      // the rounding to the integer echo-sample index.
      const fx::Value sum0 = fx::add(ref, cx, ts_config.sum_format);
      const fx::Value sum1 = fx::add(sum0, cy, ts_config.sum_format);
      const std::int64_t idx = sum1.round_to_int(fx::Rounding::kHalfUp);
      out[static_cast<std::size_t>(probe.flat_index(ix, iy))] =
          static_cast<std::int32_t>(idx < 0 ? 0 : idx);
    }
  }
}

SteerDatapath::SteerDatapath(const TableSteerConfig& config)
    : config_(config) {
  const int ef = config.entry_format.fraction_bits;
  const int cf = config.coeff_format.fraction_bits;
  const int sf = config.sum_format.fraction_bits;
  const int frac0 = std::max(ef, cf);
  ref_align_ = frac0 - ef;
  cx_align_ = frac0 - cf;
  sum0_shift_ = frac0 - sf;
  const int frac1 = std::max(sf, cf);
  cy_align_ = frac1 - cf;
  sum1_shift_ = frac1 - sf;
  sum_frac_ = sf;
  // The rounding shifts' range checks depend only on the formats, so they
  // run here once; min_raw/max_raw check the sum word width.
  US3D_EXPECTS(sum0_shift_ > -63 && sum0_shift_ < 63);
  US3D_EXPECTS(frac0 < 63 && frac1 < 63 && sum_frac_ < 63);
  sum_lo_ = config.sum_format.min_raw();
  sum_hi_ = config.sum_format.max_raw();
}

void steer_compute_block(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const SteerDatapath& datapath,
                         const imaging::FocalBlock& block, DelayPlane& plane,
                         std::vector<std::int64_t>& cy_scratch) {
  US3D_EXPECTS(table.entry_format() == datapath.config().entry_format);
  US3D_EXPECTS(corrections.coeff_format() == datapath.config().coeff_format);
  const std::size_t n = block.points.size();
  const int nx = probe.elements_x();
  const int ny = probe.elements_y();
  cy_scratch.resize(n);
  for (int iy = 0; iy < ny; ++iy) {
    // One y-correction gather per row, shared by all nx columns.
    for (std::size_t p = 0; p < n; ++p) {
      cy_scratch[p] = corrections.y_correction_raw(iy, block.points[p].i_phi);
    }
    for (int ix = 0; ix < nx; ++ix) {
      const std::span<std::int32_t> row = plane.row(probe.flat_index(ix, iy));
      const auto delay = [&](std::int64_t ref, std::size_t p) {
        const imaging::FocalPoint& fp = block.points[p];
        return datapath.index(
            ref, corrections.x_correction_raw(ix, fp.i_theta, fp.i_phi),
            cy_scratch[p]);
      };
      // kNappeByNappe blocks never span two nappes, so the table entry is
      // a per-element constant there; fall back to a per-point read when a
      // scanline-order block mixes depths.
      if (block.uniform_depth) {
        const std::int64_t ref =
            table.entry_raw(ix, iy, block.front().i_depth);
        for (std::size_t p = 0; p < n; ++p) row[p] = delay(ref, p);
      } else {
        for (std::size_t p = 0; p < n; ++p) {
          row[p] = delay(table.entry_raw(ix, iy, block.points[p].i_depth), p);
        }
      }
    }
  }
}

TableSteerEngine::TableSteerEngine(const imaging::SystemConfig& config,
                                   const TableSteerConfig& ts_config)
    : config_(config),
      probe_(config.probe),
      datapath_(ts_config),
      table_(std::make_shared<const ReferenceDelayTable>(
          config,
          ReferenceTableConfig{.entry_format = ts_config.entry_format})),
      corrections_(config, ts_config.coeff_format) {}

std::string TableSteerEngine::name() const {
  return "TABLESTEER" + config().name_suffix();
}

int TableSteerEngine::element_count() const { return probe_.element_count(); }

std::unique_ptr<DelayEngine> TableSteerEngine::clone() const {
  return std::make_unique<TableSteerEngine>(*this);
}

void TableSteerEngine::do_begin_frame(const Vec3& origin) {
  // The reference table was built for O at the array centre; a displaced
  // origin would need a different (larger) table (Sec. V-A).
  US3D_EXPECTS(std::abs(origin.x) < 1e-12 && std::abs(origin.y) < 1e-12 &&
               std::abs(origin.z) < 1e-12);
}

void TableSteerEngine::do_compute(const imaging::FocalPoint& fp,
                                  std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  steer_compute_point(probe_, *table_, corrections_, config(), fp, out);
}

void TableSteerEngine::do_compute_block(const imaging::FocalBlock& block,
                                        DelayPlane& plane) {
  steer_compute_block(probe_, *table_, corrections_, datapath_, block, plane,
                      block_cy_);
}

}  // namespace us3d::delay
