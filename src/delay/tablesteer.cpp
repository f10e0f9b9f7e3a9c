#include "delay/tablesteer.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "simd/dispatch.h"

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

namespace {

/// SteerRowParams::vector_bounded for `s` derived from `config`: neither
/// adder rounds (each only shifts its operands left onto the sum grid),
/// every shift is below 31, and each intermediate of steer_index, bounded
/// over all words of the formats, stays below 2^31 in magnitude. Checked
/// stage by stage so no bound overflows int64.
bool fits_int32_lanes(const TableSteerConfig& config,
                      const simd::SteerRowParams& s) {
  constexpr std::int64_t kLane = std::int64_t{1} << 31;
  if (s.sum0_shift > 0 || s.sum1_shift != 0) return false;
  const int sum0_left = -s.sum0_shift;
  for (const int shift : {s.ref_align + sum0_left, s.cx_align + sum0_left,
                          s.cy_align, s.sum_frac}) {
    if (shift >= 31) return false;
  }
  const auto magnitude = [](const fx::Format& f) {
    return std::max(-f.min_raw(), f.max_raw());
  };
  const std::int64_t ref = magnitude(config.entry_format);
  const std::int64_t coeff = magnitude(config.coeff_format);
  const std::int64_t sum = magnitude(config.sum_format);
  if (ref >= kLane || coeff >= kLane || sum >= kLane) return false;
  const std::int64_t first = (ref << (s.ref_align + sum0_left)) +
                             (coeff << (s.cx_align + sum0_left));
  // The second sum's bound also covers the final rounding's sum + half.
  const std::int64_t second =
      sum + (coeff << s.cy_align) + ((std::int64_t{1} << s.sum_frac) >> 1);
  return first < kLane && second < kLane;
}

}  // namespace

SteerDatapath::SteerDatapath(const TableSteerConfig& config)
    : config_(config) {
  const int ef = config.entry_format.fraction_bits;
  const int cf = config.coeff_format.fraction_bits;
  const int sf = config.sum_format.fraction_bits;
  const int frac0 = std::max(ef, cf);
  params_.ref_align = frac0 - ef;
  params_.cx_align = frac0 - cf;
  params_.sum0_shift = frac0 - sf;
  const int frac1 = std::max(sf, cf);
  params_.cy_align = frac1 - cf;
  params_.sum1_shift = frac1 - sf;
  params_.sum_frac = sf;
  // The rounding shifts' range checks depend only on the formats, so they
  // run here once; min_raw/max_raw check the sum word width.
  US3D_EXPECTS(params_.sum0_shift > -63 && params_.sum0_shift < 63);
  US3D_EXPECTS(frac0 < 63 && frac1 < 63 && params_.sum_frac < 63);
  params_.sum_lo = config.sum_format.min_raw();
  params_.sum_hi = config.sum_format.max_raw();
  params_.vector_bounded = fits_int32_lanes(config, params_);
}

void steer_compute_block(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const SteerDatapath& datapath,
                         const imaging::FocalBlock& block, DelayPlane& plane,
                         SteerBlockScratch& scratch) {
  US3D_EXPECTS(table.entry_format() == datapath.config().entry_format);
  US3D_EXPECTS(corrections.coeff_format() == datapath.config().coeff_format);
  const std::size_t n = block.points.size();
  const int nx = probe.elements_x();
  const int ny = probe.elements_y();
  // The correction plane separates into a column term and a row term, so
  // nx + ny gathered rows serve all nx * ny element rows. The words are
  // coeff_format words stored as int32, so the narrowing is exact.
  scratch.cx.resize(static_cast<std::size_t>(nx) * n);
  scratch.cy.resize(static_cast<std::size_t>(ny) * n);
  for (int ix = 0; ix < nx; ++ix) {
    std::int32_t* cx = scratch.cx.data() + static_cast<std::size_t>(ix) * n;
    for (std::size_t p = 0; p < n; ++p) {
      const imaging::FocalPoint& fp = block.points[p];
      cx[p] = static_cast<std::int32_t>(
          corrections.x_correction_raw(ix, fp.i_theta, fp.i_phi));
    }
  }
  for (int iy = 0; iy < ny; ++iy) {
    std::int32_t* cy = scratch.cy.data() + static_cast<std::size_t>(iy) * n;
    for (std::size_t p = 0; p < n; ++p) {
      cy[p] = static_cast<std::int32_t>(
          corrections.y_correction_raw(iy, block.points[p].i_phi));
    }
  }
  const simd::SteerRowFn row_fn =
      simd::steer_row_fn(simd::resolve_backend(simd::DasBackend::kAuto));
  for (int iy = 0; iy < ny; ++iy) {
    const std::int32_t* cy =
        scratch.cy.data() + static_cast<std::size_t>(iy) * n;
    for (int ix = 0; ix < nx; ++ix) {
      const std::int32_t* cx =
          scratch.cx.data() + static_cast<std::size_t>(ix) * n;
      std::int32_t* row = plane.row(probe.flat_index(ix, iy)).data();
      // kNappeByNappe blocks never span two nappes, so the table entry is
      // a per-element constant and the row is a steer-row sweep.
      // Scanline-order blocks mix depths and read the entry per point.
      if (block.uniform_depth) {
        row_fn(datapath.row_params(),
               static_cast<std::int32_t>(
                   table.entry_raw(ix, iy, block.front().i_depth)),
               cx, cy, row, static_cast<int>(n));
      } else {
        for (std::size_t p = 0; p < n; ++p) {
          row[p] = datapath.index(
              table.entry_raw(ix, iy, block.points[p].i_depth), cx[p], cy[p]);
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
                      block_rows_);
}

}  // namespace us3d::delay
