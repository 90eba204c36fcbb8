#include "geom/predicates.hpp"

#include <array>
#include <cmath>

namespace gdvr::geom {

namespace {

// Maximum predicate matrix size: dim+1 rows for in_sphere with dim <= 12.
constexpr int kMaxN = 13;

// Determinant of an n x n row-major matrix held in a flat stack buffer;
// Gaussian elimination with partial pivoting, destroys the buffer. Closed
// forms for n <= 3 (the 2D/3D hot path: every walk step and hull-visibility
// test bottoms out here, and generic pivoting costs several times the
// arithmetic at these sizes).
double det_flat(double* m, int n) {
  if (n == 1) return m[0];
  if (n == 2) return m[0] * m[3] - m[1] * m[2];
  if (n == 3)
    return m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6]) +
           m[2] * (m[3] * m[7] - m[4] * m[6]);
  double det = 1.0;
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    double best = std::fabs(m[col * n + col]);
    for (int row = col + 1; row < n; ++row) {
      const double mag = std::fabs(m[row * n + col]);
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    if (best == 0.0) return 0.0;
    if (pivot != col) {
      for (int k = 0; k < n; ++k) std::swap(m[pivot * n + k], m[col * n + k]);
      det = -det;
    }
    det *= m[col * n + col];
    const double inv = 1.0 / m[col * n + col];
    for (int row = col + 1; row < n; ++row) {
      const double factor = m[row * n + col] * inv;
      if (factor == 0.0) continue;
      for (int k = col; k < n; ++k) m[row * n + k] -= factor * m[col * n + k];
    }
  }
  return det;
}

double orient_flat(std::span<const Vec> points, int dim) {
  std::array<double, kMaxN * kMaxN> buf;
  for (int r = 0; r < dim; ++r)
    for (int c = 0; c < dim; ++c)
      buf[static_cast<std::size_t>(r * dim + c)] =
          points[static_cast<std::size_t>(r + 1)][c] - points[0][c];
  return det_flat(buf.data(), dim);
}

}  // namespace

double det_inplace(double* m, int n) {
  GDVR_ASSERT(n <= kMaxN);
  return det_flat(m, n);
}

double determinant_inplace(std::vector<std::vector<double>>& m) {
  const int n = static_cast<int>(m.size());
  GDVR_ASSERT(n <= kMaxN);
  std::array<double, kMaxN * kMaxN> buf;
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      buf[static_cast<std::size_t>(r * n + c)] = m[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  return det_flat(buf.data(), n);
}

double orient(std::span<const Vec> points) {
  const int dim = points[0].dim();
  GDVR_ASSERT(static_cast<int>(points.size()) == dim + 1 && dim < kMaxN);
  return orient_flat(points, dim);
}

double in_sphere(std::span<const Vec> points, const Vec& q) {
  const int dim = q.dim();
  GDVR_ASSERT(static_cast<int>(points.size()) == dim + 1 && dim + 1 <= kMaxN);
  // Lifted-paraboloid determinant with rows (p_i - q, |p_i - q|^2). For a
  // positively oriented simplex the determinant is positive iff q is strictly
  // inside the circumsphere; multiply by the orientation sign so callers get
  // an orientation-independent predicate.
  const int n = dim + 1;
  std::array<double, kMaxN * kMaxN> buf;
  for (int r = 0; r < n; ++r) {
    double norm2 = 0.0;
    for (int c = 0; c < dim; ++c) {
      const double diff = points[static_cast<std::size_t>(r)][c] - q[c];
      buf[static_cast<std::size_t>(r * n + c)] = diff;
      norm2 += diff * diff;
    }
    buf[static_cast<std::size_t>(r * n + dim)] = norm2;
  }
  const double det = det_flat(buf.data(), n);
  const double o = orient_flat(points, dim);
  // The lifted determinant's "inside" sign alternates with dimension parity
  // (classic 2D incircle: positive inside for a CCW triangle; classic 3D
  // insphere: negative inside for a positively oriented tetrahedron).
  const double parity = (dim % 2 == 0) ? 1.0 : -1.0;
  if (o > 0.0) return parity * det;
  if (o < 0.0) return -parity * det;
  return 0.0;  // degenerate simplex: no meaningful circumsphere
}

bool circumsphere(std::span<const Vec> points, Vec& center, double& radius2) {
  const int dim = points[0].dim();
  GDVR_ASSERT(static_cast<int>(points.size()) == dim + 1);
  const double* rows[kMaxN];
  for (int i = 0; i <= dim; ++i)
    rows[static_cast<std::size_t>(i)] = points[static_cast<std::size_t>(i)].coords().data();
  return circumsphere_rows(rows, dim, center, radius2);
}

bool circumsphere_rows(const double* const* rows, int dim, Vec& center, double& radius2) {
  // Solve 2 (p_i - p_0) . x = |p_i|^2 - |p_0|^2 for i = 1..d, augmented
  // Gaussian elimination with partial pivoting on a stack buffer.
  constexpr int kW = kMaxN + 1;
  std::array<double, kMaxN * kW> a;
  const double* p0 = rows[0];
  double n0 = 0.0;
  for (int c = 0; c < dim; ++c) n0 += p0[c] * p0[c];
  const int w = dim + 1;  // row width: dim coefficients + rhs
  for (int r = 0; r < dim; ++r) {
    const double* p = rows[r + 1];
    double np = 0.0;
    for (int c = 0; c < dim; ++c) {
      a[static_cast<std::size_t>(r * w + c)] = 2.0 * (p[c] - p0[c]);
      np += p[c] * p[c];
    }
    a[static_cast<std::size_t>(r * w + dim)] = np - n0;
  }
  for (int col = 0; col < dim; ++col) {
    int pivot = col;
    double best = std::fabs(a[static_cast<std::size_t>(col * w + col)]);
    for (int row = col + 1; row < dim; ++row) {
      const double mag = std::fabs(a[static_cast<std::size_t>(row * w + col)]);
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != col)
      for (int k = 0; k < w; ++k)
        std::swap(a[static_cast<std::size_t>(pivot * w + k)], a[static_cast<std::size_t>(col * w + k)]);
    for (int row = col + 1; row < dim; ++row) {
      const double f = a[static_cast<std::size_t>(row * w + col)] / a[static_cast<std::size_t>(col * w + col)];
      for (int k = col; k < w; ++k)
        a[static_cast<std::size_t>(row * w + k)] -= f * a[static_cast<std::size_t>(col * w + k)];
    }
  }
  center = Vec(dim);
  for (int row = dim - 1; row >= 0; --row) {
    double s = a[static_cast<std::size_t>(row * w + dim)];
    for (int k = row + 1; k < dim; ++k) s -= a[static_cast<std::size_t>(row * w + k)] * center[k];
    center[row] = s / a[static_cast<std::size_t>(row * w + row)];
  }
  double r2 = 0.0;
  for (int c = 0; c < dim; ++c) {
    const double diff = center[c] - p0[c];
    r2 += diff * diff;
  }
  radius2 = r2;
  return center.finite() && std::isfinite(radius2);
}

}  // namespace gdvr::geom
