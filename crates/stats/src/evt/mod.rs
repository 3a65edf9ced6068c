//! Extreme value theory: sample preparation and tail fitting.
//!
//! The MBPTA pipeline reduces a campaign of execution times to a fitted
//! extreme-value tail in three steps:
//!
//! 1. extract **block maxima** ([`block_maxima`]) or **peaks over
//!    threshold** ([`peaks_over_threshold`]);
//! 2. fit a tail model — [`fit_gumbel`] (the production pWCET model),
//!    [`fit_gev`] (shape diagnostic) or [`fit_gpd`] (POT cross-check);
//! 3. assess the fit ([`goodness_of_fit`], [`select_block_size`]).
//!
//! Fits use probability-weighted moments (Hosking et al.), with the Gumbel
//! taken on to its maximum-likelihood estimate by a safeguarded Newton
//! solve; both are standard for MBPTA-scale sample sizes (tens to
//! hundreds of maxima). The Gumbel fit runs on tie counts
//! ([`TiedSample`], [`GumbelKernel`]): one `exp()` per distinct maximum
//! per Newton step, and the same bits for any order of the maxima.

mod blocks;
mod cv;
mod fit;

pub use blocks::{block_maxima, peaks_over_threshold, select_block_size, BlockSizeChoice};
pub use cv::{cv_plot, fit_cv_tail, CvFit, CvPoint};
pub use fit::{
    fit_gev, fit_gpd, fit_gumbel, fit_gumbel_pwm, goodness_of_fit, GofReport, GumbelKernel,
    TiedSample,
};
