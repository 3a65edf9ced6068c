//! Error type of the MBPTA crate.

use proxima_stats::StatsError;
use std::fmt;

/// Errors produced by the MBPTA pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MbptaError {
    /// The campaign failed the i.i.d. validation gate; MBPTA must not
    /// proceed (the platform is not sufficiently randomized, or the
    /// protocol was violated).
    IidRejected {
        /// p-value of the Ljung-Box independence test.
        ljung_box_p: f64,
        /// p-value of the two-sample KS identical-distribution test.
        ks_p: f64,
        /// The significance level the gate was run at.
        alpha: f64,
    },
    /// The fitted tail failed goodness-of-fit at the configured level.
    PoorFit {
        /// KS goodness-of-fit p-value against the fitted Gumbel.
        ks_p: f64,
    },
    /// An underlying statistical routine failed.
    Stats(StatsError),
    /// The campaign has too few runs for the requested configuration.
    CampaignTooSmall {
        /// Runs required.
        needed: usize,
        /// Runs available.
        got: usize,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Description of the offending parameter.
        what: &'static str,
    },
    /// A channel-scoped failure inside a multi-channel session: one
    /// tenant's bad feed or failed analysis, quarantined so it cannot
    /// abort the other channels. The merged
    /// [`SessionVerdict`](crate::session::SessionVerdict) reports these
    /// per channel.
    Channel {
        /// The channel whose feed or analysis failed.
        channel: crate::session::ChannelId,
        /// The underlying failure.
        source: Box<MbptaError>,
    },
    /// A checkpoint could not be saved or restored: the bytes were
    /// truncated, corrupted (checksum mismatch), written by an
    /// unsupported format version, or inconsistent with the session
    /// configuration they are being restored into. Decoding **never**
    /// panics on malformed input — it returns this variant.
    Checkpoint {
        /// Description of what went wrong.
        what: String,
    },
}

impl MbptaError {
    /// Wrap an error as a channel-scoped failure (idempotent: an error
    /// already scoped to a channel is returned unchanged).
    pub fn channel_scoped(channel: crate::session::ChannelId, source: MbptaError) -> MbptaError {
        match source {
            MbptaError::Channel { .. } => source,
            other => MbptaError::Channel {
                channel,
                source: Box::new(other),
            },
        }
    }

    /// Build a [`MbptaError::Checkpoint`] from any message — the
    /// conventional way the persistence layer reports malformed or
    /// mismatched checkpoint bytes.
    pub fn checkpoint(what: impl Into<String>) -> MbptaError {
        MbptaError::Checkpoint { what: what.into() }
    }
}

impl fmt::Display for MbptaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbptaError::IidRejected {
                ljung_box_p,
                ks_p,
                alpha,
            } => write!(
                f,
                "i.i.d. hypothesis rejected at alpha={alpha}: ljung-box p={ljung_box_p:.4}, ks p={ks_p:.4}"
            ),
            MbptaError::PoorFit { ks_p } => {
                write!(f, "gumbel tail fit rejected by goodness-of-fit (ks p={ks_p:.4})")
            }
            MbptaError::Stats(e) => write!(f, "statistics error: {e}"),
            MbptaError::CampaignTooSmall { needed, got } => {
                write!(f, "campaign too small: need {needed} runs, got {got}")
            }
            MbptaError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            MbptaError::Channel { channel, source } => {
                write!(f, "channel `{channel}`: {source}")
            }
            MbptaError::Checkpoint { what } => write!(f, "checkpoint error: {what}"),
        }
    }
}

impl std::error::Error for MbptaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MbptaError::Stats(e) => Some(e),
            MbptaError::Channel { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StatsError> for MbptaError {
    fn from(e: StatsError) -> Self {
        MbptaError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_p_values() {
        let e = MbptaError::IidRejected {
            ljung_box_p: 0.01,
            ks_p: 0.5,
            alpha: 0.05,
        };
        let s = e.to_string();
        assert!(s.contains("0.01") && s.contains("0.5"));
    }

    #[test]
    fn stats_error_converts_and_chains() {
        let e: MbptaError = StatsError::NonFiniteData.into();
        assert!(matches!(e, MbptaError::Stats(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn channel_error_wraps_scopes_and_chains() {
        let id = crate::session::ChannelId::new("tenant-9");
        let e = MbptaError::channel_scoped(id.clone(), StatsError::NonFiniteData.into());
        assert!(e.to_string().contains("tenant-9"));
        assert!(std::error::Error::source(&e).is_some());
        // Idempotent wrap: the inner error is scoped exactly once.
        let rewrapped = MbptaError::channel_scoped(crate::session::ChannelId::new("other"), e);
        assert!(rewrapped.to_string().contains("tenant-9"));
        let MbptaError::Channel { source, .. } = rewrapped else {
            panic!("channel scope lost");
        };
        assert!(matches!(
            *source,
            MbptaError::Stats(StatsError::NonFiniteData)
        ));
    }

    #[test]
    fn checkpoint_error_displays_reason() {
        let e = MbptaError::checkpoint("bad magic");
        assert!(matches!(e, MbptaError::Checkpoint { .. }));
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<MbptaError>();
    }
}
