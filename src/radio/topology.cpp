#include "radio/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"
#include "common/parallel.hpp"

namespace gdvr::radio {

namespace {

// Proper segment-segment intersection test (including touching).
bool segments_intersect(double ax, double ay, double bx, double by, double cx, double cy,
                        double dx, double dy) {
  const auto cross = [](double ox, double oy, double px, double py, double qx, double qy) {
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox);
  };
  const double d1 = cross(cx, cy, dx, dy, ax, ay);
  const double d2 = cross(cx, cy, dx, dy, bx, by);
  const double d3 = cross(ax, ay, bx, by, cx, cy);
  const double d4 = cross(ax, ay, bx, by, dx, dy);
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)))
    return true;
  const auto on_segment = [](double px, double py, double qx, double qy, double rx, double ry) {
    return std::min(px, qx) <= rx && rx <= std::max(px, qx) && std::min(py, qy) <= ry &&
           ry <= std::max(py, qy);
  };
  if (d1 == 0 && on_segment(cx, cy, dx, dy, ax, ay)) return true;
  if (d2 == 0 && on_segment(cx, cy, dx, dy, bx, by)) return true;
  if (d3 == 0 && on_segment(ax, ay, bx, by, cx, cy)) return true;
  if (d4 == 0 && on_segment(ax, ay, bx, by, dx, dy)) return true;
  return false;
}

struct NodeHardware {
  double tx_offset_db = 0.0;
  double noise_offset_db = 0.0;
};

// Per-node hardware variance (makes links asymmetric). Every generator draws
// it from the topology's Rng right after the obstacles.
std::vector<NodeHardware> draw_hardware(std::size_t n, const LinkModelParams& radio, Rng& rng) {
  std::vector<NodeHardware> hw(n);
  for (auto& h : hw) {
    h.tx_offset_db = rng.normal(0.0, radio.tx_power_var_db);
    h.noise_offset_db = rng.normal(0.0, radio.noise_var_db);
  }
  return hw;
}

// Everything a topology draws from Rng(seed) before its links -- obstacles,
// node positions, per-node hardware -- plus the box the link sweep's grid
// covers. None of it depends on the transmit power.
struct Placement {
  std::vector<Obstacle> obstacles;
  std::vector<Vec> positions;
  std::vector<NodeHardware> hw;
  Vec extent;
};

// ---------------------------------------------------------------------------
// Counter-based per-pair randomness.
//
// Link realization draws (shadowing sample, nominal rate) from a SplitMix64
// stream whose state is a hash of (seed, i, j) rather than from the
// generator's sequential Rng. A pair's draws therefore do not depend on how
// many other pairs were visited before it, which is what lets the spatial
// grid skip far-apart pairs and lets the sweep run on worker threads without
// changing a single link.

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class PairRng {
 public:
  // `seed_hash` is mix64(seed + golden) -- constant per topology, so callers
  // hash the seed once (seed_hash()) instead of per pair.
  PairRng(std::uint64_t seed_hash, int i, int j)
      : x_(mix64(seed_hash ^
                 ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
                  static_cast<std::uint32_t>(j)))) {}

  static std::uint64_t seed_hash(std::uint64_t seed) {
    return mix64(seed + 0x9E3779B97F4A7C15ull);
  }

  std::uint64_t next_u64() {
    x_ += 0x9E3779B97F4A7C15ull;
    return mix64(x_);
  }
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Raw stream state, for suspending a pair's stream between realization
  // stages (the batched sweep gates many pairs before admitting any).
  std::uint64_t state() const { return x_; }
  static PairRng from_state(std::uint64_t state) { return PairRng(state); }

 private:
  explicit PairRng(std::uint64_t raw_state) : x_(raw_state) {}
  std::uint64_t x_;
};

// Standard normal quantile (Acklam's rational approximation, |rel err| <
// 1.2e-9 -- far below the model's own calibration uncertainty). The shadow
// sample is sigma * inv_normal_cdf(u): *monotone* in the single uniform u,
// which is what makes the band-gate ladder in realize() exact -- "admission
// would need shadow < -k sigma" becomes "u < Phi(-k)", one compare, no
// transcendentals. Only the tail branches (|u - 1/2| > 0.47575) pay a
// log + sqrt.
double inv_normal_cdf(double u) {
  constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                           -2.759285104469687e+02, 1.383577518672690e+02,
                           -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                           -1.556989798598866e+02, 6.680131188771972e+01,
                           -1.328068155288572e+01};
  constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                           -2.400758277161838e+00, -2.549732539343734e+00,
                           4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                           2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  if (u < kLow) {
    const double q = std::sqrt(-2.0 * std::log(u));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (u > 1.0 - kLow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - u));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = u - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

// Phi(-k/2) for k = 1..7, each rounded *up* so a band-gate rejection is
// always confirmed by the final shadow < s_adm compare (the gates are
// conservative; they never reject a pair the exact rule admits). Stored as
// 53-bit integers on the PairRng mantissa scale: the ladder compares the raw
// shadow draw before it is ever converted to a double.
constexpr int kNumBands = 7;
constexpr std::uint64_t kPhiBandU53[kNumBands] = {
    static_cast<std::uint64_t>(0.3085376 * 0x1.0p53),    // Phi(-0.5)
    static_cast<std::uint64_t>(0.1586554 * 0x1.0p53),    // Phi(-1.0)
    static_cast<std::uint64_t>(0.0668073 * 0x1.0p53),    // Phi(-1.5)
    static_cast<std::uint64_t>(0.0227502 * 0x1.0p53),    // Phi(-2.0)
    static_cast<std::uint64_t>(0.0062097 * 0x1.0p53),    // Phi(-2.5)
    static_cast<std::uint64_t>(0.0013500 * 0x1.0p53),    // Phi(-3.0)
    static_cast<std::uint64_t>(0.0002326291 * 0x1.0p53), // Phi(-3.5)
};

// exp(x) for the link model's argument range (|x| < ~30 on the admission
// path, [-700, 0] on the packet-error path): Cody-Waite 2^k range reduction
// plus a degree-9 Taylor kernel on r in [-ln2/2, ln2/2]. Max relative error
// ~1e-11 -- three orders below the 1e-9 tolerances the radio tests allow,
// and an order faster than libm's exactly-rounded exp on this path. x below
// -700 returns 0 (the exact value is subnormal; a packet-error probability
// that small is 0 for every metric). Deterministic: plain double arithmetic
// in fixed order, no library calls.
inline double fast_exp(double x) {
  if (x < -700.0) return 0.0;
  constexpr double kShift = 0x1.8p52;  // add-subtract trick: round-to-nearest
  const double t = x * 1.4426950408889634074 + kShift;
  const double kd = t - kShift;
  const std::int64_t k = static_cast<std::int64_t>(kd);
  const double r = (x - kd * 6.93147180369123816490e-01) - kd * 1.90821492927058770002e-10;
  double p = 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  std::uint64_t bits;
  std::memcpy(&bits, &p, sizeof(bits));
  bits += static_cast<std::uint64_t>(k) << 52;  // scale by 2^k
  std::memcpy(&p, &bits, sizeof(bits));
  return p;
}

// -log1p(-pe) for packet-error probabilities. Admitted links have
// pe <= ~0.03 even at extreme PRR thresholds, so the truncated series is
// accurate to ~pe^7/7 -- far below the exp kernel's own error.
inline double neg_log1p_neg(double pe) {
  double s = 1.0 / 6.0;
  s = s * pe + 1.0 / 5.0;
  s = s * pe + 1.0 / 4.0;
  s = s * pe + 1.0 / 3.0;
  s = s * pe + 1.0 / 2.0;
  s = s * pe + 1.0;
  return pe * s;
}

// One admitted pair as the sweep leaves it: per-direction linear SNR plus the
// drawn nominal rate. The exact PRR/ETX chain runs later in a tight
// branch-free pass (finish()) -- separating the two keeps the sweep's
// serial per-pair dependency chain short and lets the out-of-order core
// overlap the transcendental math of independent links.
struct PairDraw {
  int i = -1, j = -1;
  double snr_ij = 0.0, snr_ji = 0.0;
  double rate = 1.0;
};

// One admitted link, ready to insert into the four metric graphs.
struct LinkRec {
  int i = -1, j = -1;
  double etx_ij = 0.0, etx_ji = 0.0;
  double ett_ij = 0.0, ett_ji = 0.0;
  double en_ij = 0.0, en_ji = 0.0;
};

// Per-pair link realization. Admission is decided with a single compare in
// the SNR domain: PRR is strictly increasing in SNR, so min(prr_ij, prr_ji) >
// threshold iff the pair's shadowing sample falls below `s_adm`, the
// shadow-free worst-direction SNR margin over snr_threshold_db. Two
// deterministic pre-gates avoid even drawing for hopeless pairs: the global
// d_max cutoff, and a per-pair squared-distance bound equivalent to
// s_adm <= -4 sigma -- consistent with max_link_distance(), which already
// truncates the shadowing tail at -4 sigma. The exact transcendental PRR
// chain runs only for admitted pairs.
struct LinkRealizer {
  const TopologyConfig* config = nullptr;
  const Placement* placement = nullptr;

  double d_max = 0.0, d_max2 = 0.0;
  double ref2 = 1.0;       // ref_distance^2
  double pl_coeff = 0.0;   // 5 * path_loss_exp (log10(d^2) form of path loss)
  double s_base = 0.0;     // Pt - Pn - pl_d0 - snr_threshold (shared s_adm part)
  // Linear-domain constants: the admitted-pair math runs entirely on linear
  // power ratios (one exp per transcendental step) instead of the dB-domain
  // pow(10, x/10) chains, which is what makes realize() cheap enough to call
  // tens of thousands of times per generated topology.
  double half_pl_exp = 1.5;  // path_loss_exp / 2 ((d^2)^this = (d/d0)^n_pl)
  double ln10_10 = 0.0;      // ln(10) / 10: dB -> natural-log scale
  double snr_c0 = 0.0;       // 10^((Pt - Pn - pl_d0) / 10): shared linear-SNR factor
  double adm_c0 = 0.0;       // 10^(s_base / 10): linear admission bound factor
  double bn_half = 0.0;      // bandwidth_noise_ratio / 2
  std::vector<double> P10t, P10n;  // 10^(tx_offset/10), 10^(-noise_offset/10)
  // d^2-domain band gates: band_d2[k] * min(T[i] * V[j], T[j] * V[i]) is the
  // squared distance beyond which admission requires shadow < -(k+1)/2 sigma.
  // band_d2 folds the scalar constants, T/V the per-node hardware offsets
  // (10^(+-offset / (5 n_pl))). The last band (-4 sigma) rejects outright: it
  // is the same truncation max_link_distance() already applies globally,
  // evaluated with the pair's actual hardware. Earlier bands reject on the
  // shadow uniform alone (u >= Phi(-(k+1)/2)), before any transcendental
  // runs; half-sigma rungs leave only a thin boundary layer of pairs that
  // reach the exact (and much costlier) admission compare.
  bool use_band_gates = false;
  double band_d2[kNumBands + 1] = {0.0};
  std::vector<double> T, V;
  std::vector<double> tx_mw;   // per-node transmit power (energy metric)
  double frame_bits = 0.0;
  // Flat position copies. Vec is a 16-slot dynamic-dimension type; the sweep
  // touches every candidate pair, so it reads plain arrays instead.
  std::vector<double> px, py, pz;  // pz empty in 2D
  std::uint64_t seed_hash = 0;     // PairRng::seed_hash(config.seed)

  // `snr_thr` is snr_threshold_db(cfg.radio, cfg.prr_threshold), which reads
  // no power field: calibration computes it once for all of its steps.
  void init(const TopologyConfig& cfg, const Placement& pl, double snr_thr) {
    config = &cfg;
    placement = &pl;
    const std::vector<Vec>& pos = pl.positions;
    const std::vector<NodeHardware>& hardware = pl.hw;
    const LinkModelParams& p = cfg.radio;
    d_max = max_link_distance(p, cfg.prr_threshold);
    d_max2 = d_max * d_max;
    ref2 = p.ref_distance_m * p.ref_distance_m;
    pl_coeff = 5.0 * p.path_loss_exp;
    s_base = p.tx_power_dbm - p.noise_floor_dbm - p.pl_d0_db - snr_thr;
    frame_bits = 8.0 * static_cast<double>(p.frame_bytes + p.preamble_bytes) *
                 (p.manchester ? 2.0 : 1.0);
    half_pl_exp = 0.5 * p.path_loss_exp;
    ln10_10 = std::log(10.0) / 10.0;
    snr_c0 = std::pow(10.0, (p.tx_power_dbm - p.noise_floor_dbm - p.pl_d0_db) / 10.0);
    adm_c0 = std::pow(10.0, s_base / 10.0);
    bn_half = 0.5 * p.bandwidth_noise_ratio;
    const std::size_t n = hardware.size();
    T.resize(n);
    V.resize(n);
    P10t.resize(n);
    P10n.resize(n);
    tx_mw.resize(n);
    use_band_gates = p.path_loss_exp > 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (use_band_gates) {
        T[u] = std::pow(10.0, hardware[u].tx_offset_db / pl_coeff);
        V[u] = std::pow(10.0, -hardware[u].noise_offset_db / pl_coeff);
      }
      P10t[u] = std::pow(10.0, hardware[u].tx_offset_db / 10.0);
      P10n[u] = std::pow(10.0, -hardware[u].noise_offset_db / 10.0);
      tx_mw[u] = std::pow(10.0, (p.tx_power_dbm + hardware[u].tx_offset_db) / 10.0);
    }
    if (use_band_gates) {
      // s_adm <= -k/2 sigma <=> 10 n_pl log10(d / d0) >= beta_k + min-offset,
      // i.e. d^2 >= d0^2 10^(beta_k / (5 n_pl)) * 10^(min-offset / (5 n_pl)).
      for (int k = 1; k <= kNumBands + 1; ++k) {
        const double beta = s_base + 0.5 * static_cast<double>(k) * p.shadow_sigma_db;
        band_d2[k - 1] = ref2 * std::pow(10.0, beta / pl_coeff);
      }
    }
    px.resize(n);
    py.resize(n);
    if (!pos.empty() && pos.front().dim() == 3) pz.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      px[u] = pos[u][0];
      py[u] = pos[u][1];
      if (!pz.empty()) pz[u] = pos[u][2];
    }
    seed_hash = PairRng::seed_hash(cfg.seed);
  }

  // Realizes pair (i, j) at squared distance d2 <= d_max2; true and `rec`
  // filled iff the link is admitted.
  bool realize_in_range(int i, int j, double d2, PairDraw& rec) const {
    double u = 0.0;
    std::uint64_t state = 0;
    return gate(i, j, d2, &u, &state) && admit(i, j, d2, u, state, rec);
  }

  // Realization stage 1: deterministic band gates plus the ladder on the
  // pair's shadow uniform -- everything that can reject a pair without
  // transcendental math. On success, *u_out is the retained uniform and
  // *state_out the pair's suspended draw stream (the rate draw continues it
  // in admit()).
  bool gate(int i, int j, double d2, double* u_out, std::uint64_t* state_out) const {
    const std::size_t si = static_cast<std::size_t>(i), sj = static_cast<std::size_t>(j);
    const double mtv = use_band_gates ? std::min(T[si] * V[sj], T[sj] * V[si]) : 0.0;
    if (use_band_gates && d2 >= band_d2[kNumBands] * mtv) return false;  // needs < -4 sigma
    PairRng prng(seed_hash, i, j);
    // Raw 53-bit draw; u = raw * 2^-53 exactly, so the ladder can compare in
    // the integer domain (raw == 0 is the uniform() <= 1e-300 retry case).
    std::uint64_t raw = prng.next_u64() >> 11;
    while (raw == 0) raw = prng.next_u64() >> 11;
    if (use_band_gates && d2 >= band_d2[0] * mtv) {
      if (raw >= kPhiBandU53[0]) return false;
      for (int k = 1; k < kNumBands && d2 >= band_d2[k] * mtv; ++k)
        if (raw >= kPhiBandU53[k]) return false;
    }
    *u_out = static_cast<double>(raw) * 0x1.0p-53;
    *state_out = prng.state();
    return true;
  }

  // Realization stage 2: exact admission compare, rate draw, obstacle check.
  bool admit(int i, int j, double d2, double u, std::uint64_t state, PairDraw& rec) const {
    const std::size_t si = static_cast<std::size_t>(i), sj = static_cast<std::size_t>(j);
    const LinkModelParams& p = config->radio;
    // Everything below runs on linear power ratios. With
    //   pf = 10^(-shadow/10) / (d/d0)^n_pl     (shadow + distance attenuation)
    //   g_uv = 10^((tx_u - noise_v)/10)        (per-direction hardware gain)
    // the receiver SNR is snr_c0 * pf * g_uv, and `shadow < s_adm` from the
    // dB-domain admission rule becomes adm_c0 * pf * min(g_ij, g_ji) > 1 --
    // strictly monotone transforms of both sides, so the same rule. This
    // spends one exp (shadow) + a sqrt (path loss) on the admission test,
    // and 2 exp + (exp + log1p) per direction on the exact PRR chain for
    // admitted pairs, instead of the pow(10, x/10) / pow(1-pe, bits) chain.
    const double shadow = p.shadow_sigma_db * inv_normal_cdf(u);
    const double d2n = std::max(d2, ref2) / ref2;
    double plin;  // (d/d0)^n_pl, i.e. 10^(distance path loss / 10)
    if (p.path_loss_exp == 3.0)
      plin = d2n * std::sqrt(d2n);
    else if (p.path_loss_exp == 2.0)
      plin = d2n;
    else if (p.path_loss_exp == 4.0)
      plin = d2n * d2n;
    else
      plin = std::pow(d2n, half_pl_exp);
    const double att = fast_exp(-ln10_10 * shadow);  // 10^(-shadow/10)
    const double g_ij = P10t[si] * P10n[sj];
    const double g_ji = P10t[sj] * P10n[si];
    // adm_c0 * (att / plin) * min(g) > 1, with the division hoisted off the
    // rejection path (most calls reject; only admitted pairs need pf itself).
    if (!(adm_c0 * att * std::min(g_ij, g_ji) > plin)) return false;
    const double pf = att / plin;
    PairRng prng = PairRng::from_state(state);
    const double rate = prng.uniform(config->min_rate_mbps, config->max_rate_mbps);
    const std::vector<Obstacle>& obstacles = placement->obstacles;
    if (!obstacles.empty()) {
      const Vec& a = placement->positions[si];
      const Vec& b = placement->positions[sj];
      if (std::any_of(obstacles.begin(), obstacles.end(),
                      [&](const Obstacle& o) { return o.blocks(a, b); }))
        return false;
    }
    rec.i = i;
    rec.j = j;
    rec.snr_ij = snr_c0 * pf * g_ij;
    rec.snr_ji = snr_c0 * pf * g_ji;
    rec.rate = rate;
    return true;
  }

  // PRR chain (same model as prr()): pe = 1/2 exp(-B/2 * snr_lin),
  // ETX = 1/PRR = (1 - pe)^-bits = exp(bits * -log1p(-pe)).
  LinkRec finish(const PairDraw& pd) const {
    const std::size_t si = static_cast<std::size_t>(pd.i), sj = static_cast<std::size_t>(pd.j);
    const double pe_ij = 0.5 * fast_exp(-bn_half * pd.snr_ij);
    const double pe_ji = 0.5 * fast_exp(-bn_half * pd.snr_ji);
    LinkRec r;
    r.i = pd.i;
    r.j = pd.j;
    r.etx_ij = fast_exp(frame_bits * neg_log1p_neg(pe_ij));
    r.etx_ji = fast_exp(frame_bits * neg_log1p_neg(pe_ji));
    const double airtime_ms = frame_bits / (pd.rate * 1000.0);
    r.ett_ij = r.etx_ij * airtime_ms;
    r.ett_ji = r.etx_ji * airtime_ms;
    r.en_ij = r.ett_ij * tx_mw[si];
    r.en_ji = r.ett_ji * tx_mw[sj];
    return r;
  }
};

// Uniform spatial grid over the placement box. Cells are at least
// d_max / 2 on a side (capped so the cell count stays O(n)); a node's
// candidate partners all live within `range` cells per axis, where
// range = ceil(d_max / cell) <= 2.
struct SpatialGrid {
  int dim = 2;
  int counts[3] = {1, 1, 1};
  double cell[3] = {1.0, 1.0, 1.0};
  int range[3] = {1, 1, 1};
  std::vector<std::vector<int>> cells;  // node ids in ascending id order

  SpatialGrid(const std::vector<Vec>& pos, const Vec& extent, double d_max) {
    dim = extent.dim();
    const int n = static_cast<int>(pos.size());
    // Per-axis cap keeps total cells <= ~8n even for tiny radii.
    const int cap = std::max(
        1, 2 * static_cast<int>(std::ceil(std::pow(std::max(n, 1), 1.0 / dim))));
    int total = 1;
    for (int k = 0; k < dim; ++k) {
      const double target = std::max(d_max / 2.0, 1e-9);
      counts[k] = std::clamp(static_cast<int>(extent[k] / target), 1, cap);
      cell[k] = extent[k] / counts[k];
      range[k] = cell[k] > 0.0
                     ? std::min(counts[k], static_cast<int>(std::ceil(d_max / cell[k])))
                     : counts[k];
      total *= counts[k];
    }
    cells.resize(static_cast<std::size_t>(total));
    for (int u = 0; u < n; ++u)
      cells[static_cast<std::size_t>(cell_index(pos[static_cast<std::size_t>(u)]))].push_back(u);
  }

  int coord(const Vec& p, int k) const {
    return std::clamp(static_cast<int>(p[k] / cell[k]), 0, counts[k] - 1);
  }
  int cell_index(const Vec& p) const {
    int idx = dim == 3 ? coord(p, 2) : 0;
    idx = idx * counts[1] + coord(p, 1);
    return idx * counts[0] + coord(p, 0);
  }
};

// Places config.n nodes uniformly in the config's box, rejecting positions
// inside obstacles. Draw order on Rng(seed): obstacles, positions, hardware.
Placement place_random(const TopologyConfig& config) {
  GDVR_ASSERT(config.space_dim == 2 || config.space_dim == 3);
  GDVR_ASSERT_MSG(config.space_dim == 2 || config.num_obstacles == 0,
                  "obstacles are modeled in 2D only");
  Rng rng(config.seed);
  Placement pl;
  pl.obstacles = random_obstacles(config.num_obstacles, config.obstacle_size_m, config.width_m,
                                  config.height_m, rng);
  pl.extent = config.space_dim == 2 ? Vec{config.width_m, config.height_m}
                                    : Vec{config.width_m, config.height_m, config.depth_m};
  pl.positions.reserve(static_cast<std::size_t>(config.n));
  for (int i = 0; i < config.n; ++i) {
    Vec p;
    for (int attempt = 0; attempt < 10000; ++attempt) {
      p = rng.point_in_box(pl.extent);
      const bool inside = std::any_of(pl.obstacles.begin(), pl.obstacles.end(),
                                      [&](const Obstacle& o) { return o.contains(p); });
      if (!inside) break;
    }
    pl.positions.push_back(p);
  }
  pl.hw = draw_hardware(pl.positions.size(), config.radio, rng);
  return pl;
}

constexpr int kRowsPerChunk = 64;

int sweep_chunks(std::size_t n) {
  return static_cast<int>((n + kRowsPerChunk - 1) / kRowsPerChunk);
}

// Workers for sweeps over up to n nodes, at most one per chunk: a one-chunk
// sweep starts no thread. Calibration keeps one pool for all of its sweeps.
WorkerPool sweep_pool(std::size_t n) {
  return WorkerPool(std::clamp(sweep_chunks(n), 1, resolve_thread_count(0)));
}

// The grid sweep: every pair the realizer admits, in (i, j) order, as one
// list per row chunk (gluing them would just copy megabytes, so callers
// iterate the chunks in place). Chunk boundaries are fixed, not
// thread-count dependent, and each chunk fills its own slot, so the list
// is identical no matter how many workers ran the sweep.
std::vector<std::vector<PairDraw>> sweep(const LinkRealizer& realizer, const Placement& pl,
                                         WorkerPool& pool) {
  const int n = static_cast<int>(pl.positions.size());
  const SpatialGrid grid(pl.positions, pl.extent, realizer.d_max);
  const int chunks = sweep_chunks(pl.positions.size());
  std::vector<std::vector<PairDraw>> rows(static_cast<std::size_t>(chunks));
  const auto scan = [&](int c) {
    std::vector<PairDraw>& out = rows[static_cast<std::size_t>(c)];
    PairDraw rec;
    const int lo = c * kRowsPerChunk;
    const int hi = std::min(n, lo + kRowsPerChunk);
    out.reserve(static_cast<std::size_t>(hi - lo) * 8);
    const bool three_d = !realizer.pz.empty();
    for (int i = lo; i < hi; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      const Vec& p = pl.positions[si];
      const std::size_t row_start = out.size();
      const double xi = realizer.px[si], yi = realizer.py[si];
      const double zi = three_d ? realizer.pz[si] : 0.0;
      const int cx = grid.coord(p, 0), cy = grid.coord(p, 1);
      const int cz = grid.dim == 3 ? grid.coord(p, 2) : 0;
      const int z_lo = std::max(0, cz - grid.range[2]);
      const int z_hi = grid.dim == 3 ? std::min(grid.counts[2] - 1, cz + grid.range[2]) : 0;
      for (int z = z_lo; z <= z_hi; ++z)
        for (int y = std::max(0, cy - grid.range[1]);
             y <= std::min(grid.counts[1] - 1, cy + grid.range[1]); ++y)
          for (int x = std::max(0, cx - grid.range[0]);
               x <= std::min(grid.counts[0] - 1, cx + grid.range[0]); ++x) {
            const auto& bucket =
                grid.cells[static_cast<std::size_t>((z * grid.counts[1] + y) * grid.counts[0] + x)];
            // Bucket ids ascend, so the j > i suffix starts at upper_bound.
            for (auto it = std::upper_bound(bucket.begin(), bucket.end(), i);
                 it != bucket.end(); ++it) {
              const int j = *it;
              const std::size_t sj = static_cast<std::size_t>(j);
              const double dx = xi - realizer.px[sj], dy = yi - realizer.py[sj];
              double d2 = dx * dx + dy * dy;
              if (three_d) {
                const double dz = zi - realizer.pz[sj];
                d2 += dz * dz;
              }
              if (d2 <= realizer.d_max2 && d2 > 0.0 && realizer.realize_in_range(i, j, d2, rec))
                out.push_back(rec);
            }
          }
      // Cells are visited in spatial order; restore ascending j in the row.
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(row_start), out.end(),
                [](const PairDraw& a, const PairDraw& b) { return a.j < b.j; });
    }
  };
  pool.parallel_for(chunks, scan);
  return rows;
}

// Link realization and graph assembly over a placement; shared by
// make_random_topology() and make_topology_from_positions(). One symmetric
// shadowing sample and one nominal rate per pair, drawn from the
// counter-based PairRng; asymmetry comes from the per-node hardware offsets,
// as in the original link-layer simulator.
Topology assemble(const TopologyConfig& config, Placement pl) {
  LinkRealizer realizer;
  realizer.init(config, pl, snr_threshold_db(config.radio, config.prr_threshold));
  WorkerPool pool = sweep_pool(pl.positions.size());
  const std::vector<std::vector<PairDraw>> chunk_links = sweep(realizer, pl, pool);

  // Counting-sort the directed edges into per-node runs: the CSR arrays the
  // graphs take over. The per-node edge order is exactly the order a
  // per-link add_bidirectional loop would have produced (ascending by
  // target). The exact PRR/ETX chain (finish()) runs inside the scatter
  // pass: iterations are independent, so the expensive exp calls of
  // neighboring links overlap, and the per-link metric record never
  // round-trips through memory.
  Topology topo;
  const std::size_t nn = pl.positions.size();
  std::vector<std::size_t> off(nn + 1, 0);
  for (const auto& chunk : chunk_links)
    for (const PairDraw& d : chunk) {
      ++off[static_cast<std::size_t>(d.i) + 1];
      ++off[static_cast<std::size_t>(d.j) + 1];
    }
  for (std::size_t u = 0; u < nn; ++u) off[u + 1] += off[u];
  const std::size_t m = off[nn];
  std::vector<graph::Edge> fe(m), fh(m), ft(m), fn(m);
  std::vector<std::size_t> cur(off.begin(), off.end() - 1);
  for (const auto& chunk : chunk_links)
    for (const PairDraw& d : chunk) {
      const LinkRec r = realizer.finish(d);
      const std::size_t a = cur[static_cast<std::size_t>(r.i)]++;
      fe[a] = {r.j, r.etx_ij};
      fh[a] = {r.j, 1.0};
      ft[a] = {r.j, r.ett_ij};
      fn[a] = {r.j, r.en_ij};
      const std::size_t b = cur[static_cast<std::size_t>(r.j)]++;
      fe[b] = {r.i, r.etx_ji};
      fh[b] = {r.i, 1.0};
      ft[b] = {r.i, r.ett_ji};
      fn[b] = {r.i, r.en_ji};
    }
  topo.etx = graph::Graph(off, std::move(fe));
  topo.hops = graph::Graph(off, std::move(fh));
  topo.ett = graph::Graph(off, std::move(ft));
  topo.energy = graph::Graph(std::move(off), std::move(fn));
  topo.positions = std::move(pl.positions);
  topo.obstacles = std::move(pl.obstacles);
  topo.radio = config.radio;
  return keep_largest_component(std::move(topo));
}

}  // namespace

std::vector<int> spatial_shards(const Topology& topo, int shards) {
  const int n = topo.size();
  if (shards <= 0) {
    if (const char* env = std::getenv("GDVR_SIM_SHARDS")) shards = std::atoi(env);
    if (shards <= 0) shards = std::clamp(n / 128, 1, 64);
  }
  shards = std::clamp(shards, 1, std::max(n, 1));
  std::vector<int> shard_of(static_cast<std::size_t>(n), 0);
  if (shards == 1 || n == 0) return shard_of;

  // Bounding box of the placement (positions live in [0, extent] per axis).
  const int dim = topo.positions.front().dim();
  Vec extent(dim);
  for (const Vec& p : topo.positions)
    for (int k = 0; k < dim; ++k) extent[k] = std::max(extent[k], p[k]);
  double max_extent = 1e-9;
  for (int k = 0; k < dim; ++k) {
    extent[k] = std::max(extent[k], 1e-9) * 1.0001;  // keep coord() off the edge
    max_extent = std::max(max_extent, extent[k]);
  }

  // Reuse the link-scan bucket grid with d_max chosen so the grid has at
  // least `shards` cells (SpatialGrid targets a cell side of d_max / 2).
  const double per_axis = std::ceil(std::pow(static_cast<double>(shards), 1.0 / dim));
  SpatialGrid grid(topo.positions, extent, 2.0 * max_extent / per_axis);

  // Pack cells into `shards` groups with balanced node counts: the i-th node
  // in cell-major order goes to shard floor(i * shards / n).
  int rank = 0;
  for (const std::vector<int>& cell : grid.cells)
    for (int u : cell) {
      shard_of[static_cast<std::size_t>(u)] =
          static_cast<int>(static_cast<std::int64_t>(rank) * shards / n);
      ++rank;
    }
  return shard_of;
}

bool Obstacle::blocks(const Vec& a, const Vec& b) const {
  if (contains(a) || contains(b)) return true;
  // Segment fully to one side of the box?
  if (std::max(a[0], b[0]) < x0 || std::min(a[0], b[0]) > x1 || std::max(a[1], b[1]) < y0 ||
      std::min(a[1], b[1]) > y1)
    return false;
  return segments_intersect(a[0], a[1], b[0], b[1], x0, y0, x1, y0) ||
         segments_intersect(a[0], a[1], b[0], b[1], x1, y0, x1, y1) ||
         segments_intersect(a[0], a[1], b[0], b[1], x1, y1, x0, y1) ||
         segments_intersect(a[0], a[1], b[0], b[1], x0, y1, x0, y0);
}

double max_link_distance(const LinkModelParams& p, double prr_threshold) {
  // Best case: -4 sigma shadowing plus +3 sigma hardware luck on both ends.
  const double margin = 4.0 * p.shadow_sigma_db + 3.0 * (p.tx_power_var_db + p.noise_var_db);
  double lo = p.ref_distance_m, hi = p.ref_distance_m;
  // Grow until PRR at hi is below threshold even with full margin.
  for (int i = 0; i < 64; ++i) {
    const double snr = p.tx_power_dbm + margin - path_loss_db(p, hi) - p.noise_floor_dbm;
    if (prr_from_snr_db(p, snr) <= prr_threshold) break;
    lo = hi;
    hi *= 2.0;
  }
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double snr = p.tx_power_dbm + margin - path_loss_db(p, mid) - p.noise_floor_dbm;
    if (prr_from_snr_db(p, snr) > prr_threshold)
      lo = mid;
    else
      hi = mid;
  }
  return hi;
}

double snr_threshold_db(const LinkModelParams& p, double prr_threshold) {
  double lo = -200.0, hi = 200.0;  // prr is ~0 at -200 dB and ~1 at +200 dB
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (prr_from_snr_db(p, mid) > prr_threshold)
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

std::vector<Obstacle> random_obstacles(int count, double size_m, double width_m, double height_m,
                                       Rng& rng) {
  std::vector<Obstacle> obstacles;
  obstacles.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double x = rng.uniform(0.0, std::max(width_m - size_m, 0.0));
    const double y = rng.uniform(0.0, std::max(height_m - size_m, 0.0));
    obstacles.push_back({x, y, x + size_m, y + size_m});
  }
  return obstacles;
}

double calibrate_tx_power(const TopologyConfig& config, double target_avg_degree) {
  // Obstacles, positions and hardware come from Rng(seed) and none of them
  // depends on the power, so each sample is placed once; a step re-runs the
  // link sweep at its power and only counts what it admits.
  constexpr int kSamples = 3;
  const auto sample_seed = [&](int s) {
    return config.seed + 7919ull * static_cast<std::uint64_t>(s);
  };
  TopologyConfig c = config;
  std::vector<Placement> samples;
  for (int s = 0; s < kSamples; ++s) {
    c.seed = sample_seed(s);
    samples.push_back(place_random(c));
  }
  const double snr_thr = snr_threshold_db(config.radio, config.prr_threshold);
  WorkerPool pool = sweep_pool(samples[0].positions.size());  // each places config.n
  double lo = -30.0, hi = 30.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    c.radio.tx_power_dbm = mid;
    double degree = 0.0;
    for (int s = 0; s < kSamples; ++s) {
      c.seed = sample_seed(s);
      const Placement& pl = samples[static_cast<std::size_t>(s)];
      LinkRealizer realizer;
      realizer.init(c, pl, snr_thr);
      std::size_t links = 0;
      for (const auto& chunk : sweep(realizer, pl, pool)) links += chunk.size();
      // Average degree over every placed node: 2 * links / n.
      if (!pl.positions.empty())
        degree += static_cast<double>(2 * links) / static_cast<double>(pl.positions.size());
    }
    degree /= kSamples;
    if (degree < target_avg_degree)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

Topology induced_topology(const Topology& topo, std::span<const int> keep) {
  Topology t;
  t.positions.reserve(keep.size());
  for (int u : keep) t.positions.push_back(topo.positions[static_cast<std::size_t>(u)]);
  t.etx = topo.etx.induced_subgraph(keep);
  t.hops = topo.hops.induced_subgraph(keep);
  t.ett = topo.ett.induced_subgraph(keep);
  t.energy = topo.energy.induced_subgraph(keep);
  t.obstacles = topo.obstacles;
  t.radio = topo.radio;
  return t;
}

Topology keep_largest_component(Topology topo) {
  const std::vector<int> keep = graph::largest_component(topo.etx);
  if (static_cast<int>(keep.size()) == topo.size()) return topo;
  return induced_topology(topo, keep);
}

Topology make_random_topology(const TopologyConfig& config) {
  TopologyConfig c = config;
  if (config.target_avg_degree > 0.0)
    c.radio.tx_power_dbm = calibrate_tx_power(config, config.target_avg_degree);
  return assemble(c, place_random(c));
}

Topology make_topology_from_positions(const TopologyConfig& config,
                                      std::vector<Vec> positions) {
  if (positions.empty()) {
    Topology topo;
    topo.radio = config.radio;
    return topo;
  }
  const int dim = positions.front().dim();
  GDVR_ASSERT(dim == 2 || dim == 3);
  GDVR_ASSERT_MSG(dim == 2 || config.num_obstacles == 0, "obstacles are modeled in 2D only");

  // Same seed-keyed draw order as place_random(): obstacles first, then
  // per-node hardware -- only the placement draws are skipped.
  // target_avg_degree is intentionally NOT honored here (calibration
  // re-places nodes randomly); callers wanting a target degree calibrate once
  // up front and pass the resulting tx power in config.radio.
  Rng rng(config.seed);
  Placement pl;
  pl.obstacles = random_obstacles(config.num_obstacles, config.obstacle_size_m, config.width_m,
                                  config.height_m, rng);
  pl.hw = draw_hardware(positions.size(), config.radio, rng);
  pl.positions = std::move(positions);

  // Bounding box of the supplied positions (the spatial grid clamps, so a
  // slightly-tight box only merges edge cells -- never loses a candidate).
  pl.extent = Vec(dim);
  for (const Vec& p : pl.positions)
    for (int k = 0; k < dim; ++k) pl.extent[k] = std::max(pl.extent[k], p[k]);
  for (int k = 0; k < dim; ++k) pl.extent[k] = std::max(pl.extent[k], 1e-9) * 1.0001;

  return assemble(config, std::move(pl));
}

Topology make_grid(int rows, int cols, double spacing_m, double connect_radius_factor) {
  Topology topo;
  const int n = rows * cols;
  topo.positions.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      topo.positions.push_back(Vec{static_cast<double>(c) * spacing_m,
                                   static_cast<double>(r) * spacing_m});
  // Every metric is unit cost on a grid, so the four graphs are one.
  graph::GraphBuilder links(n);
  const double radius = connect_radius_factor * spacing_m * 1.0001;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (topo.positions[static_cast<std::size_t>(i)].distance(
              topo.positions[static_cast<std::size_t>(j)]) <= radius)
        links.add_bidirectional(i, j, 1.0, 1.0);
  topo.etx = links.build();
  topo.hops = topo.etx;
  topo.ett = topo.etx;
  topo.energy = topo.etx;
  return topo;
}

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kHopCount: return "hop count";
    case Metric::kEtx: return "ETX";
    case Metric::kEtt: return "ETT (ms)";
    case Metric::kEnergy: return "energy (uJ)";
  }
  return "?";
}

}  // namespace gdvr::radio
