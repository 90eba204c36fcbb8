// Small dynamic-dimension Euclidean vector.
//
// VPoD embeds nodes in a virtual space whose dimension is a runtime
// parameter (the paper evaluates 2D, 3D and 4D). Vec stores up to kMaxDim
// coordinates inline -- no heap allocation -- and carries its dimension.
// All arithmetic requires matching dimensions.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "common/assert.hpp"

namespace gdvr {

class Vec {
 public:
  // The protocols run at d = 2..4 and gdv_sim accepts up to 8. Every node
  // stores a Vec per neighbor and every message carries several, so the
  // cap is sized to what is used. (The PCA study of Fig. 9, up to 15
  // dimensions, runs on analysis::Matrix, not on Vec.)
  static constexpr int kMaxDim = 8;

  Vec() = default;
  explicit Vec(int dim) : dim_(dim) {
    GDVR_ASSERT(dim >= 0 && dim <= kMaxDim);
    c_.fill(0.0);
  }
  Vec(std::initializer_list<double> xs) : dim_(static_cast<int>(xs.size())) {
    GDVR_ASSERT(dim_ <= kMaxDim);
    int i = 0;
    for (double x : xs) c_[static_cast<std::size_t>(i++)] = x;
  }
  static Vec zero(int dim) { return Vec(dim); }

  int dim() const { return dim_; }
  bool empty() const { return dim_ == 0; }

  double& operator[](int i) {
    GDVR_ASSERT(i >= 0 && i < dim_);
    return c_[static_cast<std::size_t>(i)];
  }
  double operator[](int i) const {
    GDVR_ASSERT(i >= 0 && i < dim_);
    return c_[static_cast<std::size_t>(i)];
  }

  std::span<const double> coords() const { return {c_.data(), static_cast<std::size_t>(dim_)}; }

  Vec& operator+=(const Vec& o) {
    GDVR_ASSERT(dim_ == o.dim_);
    for (int i = 0; i < dim_; ++i) c_[static_cast<std::size_t>(i)] += o.c_[static_cast<std::size_t>(i)];
    return *this;
  }
  Vec& operator-=(const Vec& o) {
    GDVR_ASSERT(dim_ == o.dim_);
    for (int i = 0; i < dim_; ++i) c_[static_cast<std::size_t>(i)] -= o.c_[static_cast<std::size_t>(i)];
    return *this;
  }
  Vec& operator*=(double s) {
    for (int i = 0; i < dim_; ++i) c_[static_cast<std::size_t>(i)] *= s;
    return *this;
  }
  Vec& operator/=(double s) { return *this *= (1.0 / s); }

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(Vec a, double s) { return a *= s; }
  friend Vec operator*(double s, Vec a) { return a *= s; }
  friend Vec operator/(Vec a, double s) { return a /= s; }

  friend bool operator==(const Vec& a, const Vec& b) {
    if (a.dim_ != b.dim_) return false;
    for (int i = 0; i < a.dim_; ++i)
      if (a.c_[static_cast<std::size_t>(i)] != b.c_[static_cast<std::size_t>(i)]) return false;
    return true;
  }

  double dot(const Vec& o) const {
    GDVR_ASSERT(dim_ == o.dim_);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i)
      s += c_[static_cast<std::size_t>(i)] * o.c_[static_cast<std::size_t>(i)];
    return s;
  }
  double norm2() const { return dot(*this); }
  double norm() const { return std::sqrt(norm2()); }

  // Euclidean distance to another point of the same dimension. Computed as a
  // raw loop: these sit on every in-conflict test and greedy-forwarding
  // decision, and going through operator- would construct a temporary Vec
  // (kMaxDim doubles) per call.
  double distance2(const Vec& o) const {
    GDVR_ASSERT(dim_ == o.dim_);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) {
      const double d = c_[static_cast<std::size_t>(i)] - o.c_[static_cast<std::size_t>(i)];
      s += d * d;
    }
    return s;
  }
  double distance(const Vec& o) const { return std::sqrt(distance2(o)); }

  // Unit vector in this direction; if the vector is (near) zero, returns a
  // deterministic unit vector along the first axis so callers never divide
  // by zero (VPoD moves nodes apart even when they coincide).
  Vec unit() const {
    const double n = norm();
    if (n < 1e-12) {
      Vec e(dim_);
      if (dim_ > 0) e[0] = 1.0;
      return e;
    }
    return *this / n;
  }

  bool finite() const {
    for (int i = 0; i < dim_; ++i)
      if (!std::isfinite(c_[static_cast<std::size_t>(i)])) return false;
    return true;
  }

  std::string to_string() const;

 private:
  std::array<double, kMaxDim> c_{};
  int dim_ = 0;
};

inline double distance(const Vec& a, const Vec& b) { return a.distance(b); }

}  // namespace gdvr
