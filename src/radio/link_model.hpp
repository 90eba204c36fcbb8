// Lossy wireless link model after Zuniga & Krishnamachari ("Analyzing the
// transitional region in low power wireless links") -- the same model behind
// the Seada et al. link-layer simulator the paper uses to create connectivity
// graphs and ETX values.
//
//   path loss:  PL(d) = PL(d0) + 10 n log10(d/d0) + X_sigma   (log-normal)
//   SNR:        gamma(d) = Pt - PL(d) - Pn                     (dB)
//   bit error:  Pe = 1/2 exp(-gamma/2 * B_N/R)                 (NC-FSK)
//   PRR:        (1 - Pe)^(8 * bytes * enc)   enc=2 w/ Manchester encoding
//
// Per-node transmit-power and noise-floor offsets model hardware variance and
// make PRR (hence ETX) asymmetric, as in the original simulator. The paper
// admits a physical link when PRR > 0.1 and sets ETX(u->v) = 1/PRR(u->v).
#pragma once

#include <cmath>

namespace gdvr::radio {

struct LinkModelParams {
  double pl_d0_db = 55.0;        // path loss at the reference distance
  double ref_distance_m = 1.0;
  // Calibrated so a meaningful share of admitted links falls in the
  // transitional (lossy) region, as in the paper's link-layer simulator; see
  // DESIGN.md. Lower exponents put more node pairs near the PRR threshold.
  double path_loss_exp = 3.0;
  double shadow_sigma_db = 4.0;  // log-normal shadowing std dev
  double tx_power_dbm = 5.0;     // see calibrate_tx_power()
  double noise_floor_dbm = -105.0;
  double tx_power_var_db = 1.0;  // per-node output power std dev (asymmetry)
  double noise_var_db = 0.5;     // per-node noise floor std dev (asymmetry)
  double bandwidth_noise_ratio = 0.64;  // B_N/R for MICA2-class NC-FSK radios
  int frame_bytes = 50;
  int preamble_bytes = 2;
  bool manchester = true;
};

// Deterministic (noise-free) path loss in dB at distance d (meters).
inline double path_loss_db(const LinkModelParams& p, double distance_m) {
  const double d = std::max(distance_m, p.ref_distance_m);
  return p.pl_d0_db + 10.0 * p.path_loss_exp * std::log10(d / p.ref_distance_m);
}

// Packet reception rate given the receiver's SNR in dB.
inline double prr_from_snr_db(const LinkModelParams& p, double snr_db) {
  const double snr = std::pow(10.0, snr_db / 10.0);
  const double pe = 0.5 * std::exp(-0.5 * snr * p.bandwidth_noise_ratio);
  const double bits = 8.0 * static_cast<double>(p.frame_bytes + p.preamble_bytes) *
                      (p.manchester ? 2.0 : 1.0);
  return std::pow(1.0 - pe, bits);
}

// PRR at distance d with a given shadowing sample and per-node offsets.
inline double prr(const LinkModelParams& p, double distance_m, double shadow_db,
                  double tx_offset_db, double rx_noise_offset_db) {
  const double snr = (p.tx_power_dbm + tx_offset_db) - (path_loss_db(p, distance_m) + shadow_db) -
                     (p.noise_floor_dbm + rx_noise_offset_db);
  return prr_from_snr_db(p, snr);
}

// Distance beyond which even a very lucky (-4 sigma shadowing, +3 sigma
// hardware) link cannot clear `prr_threshold`; the topology generator's
// link sweep only visits pairs closer than this.
double max_link_distance(const LinkModelParams& p, double prr_threshold);

// SNR (dB) at which prr_from_snr_db crosses `prr_threshold`. PRR is strictly
// increasing in SNR, so a link is admitted iff its (shadowed, offset) SNR
// exceeds this value -- the generator tests admission with one compare in
// the SNR domain instead of evaluating the transcendental PRR chain per pair.
double snr_threshold_db(const LinkModelParams& p, double prr_threshold);

}  // namespace gdvr::radio
