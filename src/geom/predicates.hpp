// Geometric predicates for d-dimensional Delaunay triangulation.
//
// All predicates are evaluated with double-precision Gaussian elimination
// (partial pivoting). Inputs to the triangulation are jittered (see
// delaunay.hpp), which keeps point sets in general position, so we do not
// need exact arithmetic; the test suite validates the resulting DT graphs
// against a brute-force empty-circumsphere oracle.
#pragma once

#include <span>
#include <vector>

#include "common/vec.hpp"

namespace gdvr::geom {

// Determinant of a small dense matrix, destroyed in place.
double determinant_inplace(std::vector<std::vector<double>>& m);

// Determinant of an n x n row-major matrix held in a caller-provided flat
// buffer (destroyed in place). Allocation-free building block for callers on
// hot paths (the Delaunay walk's per-facet orientation tests).
// n <= Vec::kMaxDim + 1.
double det_inplace(double* m, int n);

// Orientation of the simplex (p[0], ..., p[d]) in d dimensions:
// sign of det [p1-p0; p2-p0; ...; pd-p0]. Positive / negative / ~zero
// (degenerate). `points` must contain exactly dim+1 points of dimension dim.
double orient(std::span<const Vec> points);

// In-sphere predicate: > 0 iff `q` lies strictly inside the circumsphere of
// the simplex `points` (dim+1 points in dim dimensions), independent of the
// simplex's orientation. ~0 means co-spherical / degenerate.
double in_sphere(std::span<const Vec> points, const Vec& q);

// Circumcenter and squared circumradius of a d-simplex. Returns false if the
// simplex is (numerically) degenerate.
bool circumsphere(std::span<const Vec> points, Vec& center, double& radius2);

// Same predicate over raw coordinate rows (dim + 1 pointers, each to `dim`
// doubles). The triangulation kernel calls this once per created cell; the
// row-pointer form avoids copying dim+1 Vec objects into scratch first.
bool circumsphere_rows(const double* const* rows, int dim, Vec& center, double& radius2);

}  // namespace gdvr::geom
