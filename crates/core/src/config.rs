//! OLTP-Bench style `config.xml` workload configuration files (Fig. 1).
//!
//! ```xml
//! <parameters>
//!     <dbtype>mysql</dbtype>
//!     <benchmark>tpcc</benchmark>
//!     <scalefactor>2</scalefactor>
//!     <terminals>8</terminals>
//!     <works>
//!         <work>
//!             <time>60</time>
//!             <rate>500</rate>
//!             <weights>45,43,4,4,4</weights>
//!             <arrival>exponential</arrival>
//!             <thinktime>0</thinktime>
//!         </work>
//!     </works>
//! </parameters>
//! ```

use bp_obs::{ObsConfig, SpanMode};
use bp_util::xml::XmlNode;

use crate::executor::RunConfig;
use crate::rate::{ArrivalDist, Phase, PhaseScript, Rate};
use crate::slo::SloConfig;

/// A parsed workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Target DBMS personality name ("mysql", "postgres", ...).
    pub dbtype: String,
    /// Benchmark name ("tpcc", "ycsb", ...).
    pub benchmark: String,
    pub scale_factor: f64,
    pub terminals: usize,
    pub script: PhaseScript,
    /// Span recording configuration (`<observability>`; defaults to full).
    pub obs: ObsConfig,
    /// Closed-loop SLO control (`<slo>`; absent = open-loop).
    pub slo: Option<SloConfig>,
    /// Node identity in a bp-cluster fleet (`<cluster><node>`; "local" for
    /// a standalone run). The agent's coordinator and heartbeat are
    /// `bp_cluster::AgentConfig`'s, not the workload file's.
    pub node: String,
}

/// Configuration errors with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl WorkloadConfig {
    /// Parse from XML text.
    pub fn parse(xml: &str) -> Result<WorkloadConfig, ConfigError> {
        let root = XmlNode::parse(xml).map_err(|e| ConfigError(e.to_string()))?;
        if root.name != "parameters" {
            return Err(ConfigError(format!("root element must be <parameters>, got <{}>", root.name)));
        }
        let dbtype = root
            .child_text("dbtype")
            .ok_or_else(|| ConfigError("missing <dbtype>".into()))?
            .to_string();
        let benchmark = root
            .child_text("benchmark")
            .ok_or_else(|| ConfigError("missing <benchmark>".into()))?
            .to_string();
        let scale_factor = root.child_parse::<f64>("scalefactor").unwrap_or(1.0);
        let terminals = root.child_parse::<usize>("terminals").unwrap_or(1).max(1);

        let works = root
            .child("works")
            .ok_or_else(|| ConfigError("missing <works>".into()))?;
        let mut phases = Vec::new();
        for (i, work) in works.children_named("work").enumerate() {
            let ctx = |m: &str| ConfigError(format!("work #{}: {m}", i + 1));
            let time = work
                .child_parse::<f64>("time")
                .ok_or_else(|| ctx("missing or invalid <time>"))?;
            if time <= 0.0 {
                return Err(ctx("<time> must be positive"));
            }
            let rate_text = work.child_text("rate").unwrap_or("unlimited");
            let rate = Rate::parse(rate_text)
                .ok_or_else(|| ctx(&format!("invalid <rate> '{rate_text}'")))?;
            let weights = match work.child_text("weights") {
                Some(w) if !w.is_empty() => Some(
                    w.split(',')
                        .map(|p| p.trim().parse::<f64>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| ctx(&format!("invalid <weights>: {e}")))?,
                ),
                _ => None,
            };
            let arrival = match work.child_text("arrival").or_else(|| work.attr("arrival")) {
                Some(a) => ArrivalDist::parse(a)
                    .ok_or_else(|| ctx(&format!("invalid <arrival> '{a}'")))?,
                None => ArrivalDist::Uniform,
            };
            let think_ms = work.child_parse::<u64>("thinktime").unwrap_or(0);
            let mut phase = Phase::new(rate, time).with_arrival(arrival).with_think_time(think_ms * 1_000);
            phase.weights = weights;
            phases.push(phase);
        }
        if phases.is_empty() {
            return Err(ConfigError("<works> has no <work> phases".into()));
        }

        let mut obs = ObsConfig::default();
        if let Some(node) = root.child("observability") {
            if let Some(mode) = node.child_text("spans") {
                obs.mode = SpanMode::parse(mode)
                    .ok_or_else(|| ConfigError(format!("invalid <spans> '{mode}'")))?;
            }
            if let Some(ratio) = node.child_parse::<f64>("samplerate") {
                if !(0.0..=1.0).contains(&ratio) {
                    return Err(ConfigError(format!("<samplerate> {ratio} outside [0, 1]")));
                }
                obs.sample_ratio = ratio;
            }
            if let Some(cap) = node.child_parse::<usize>("ringcapacity") {
                obs.ring_capacity = cap;
            }
            if node.child("spanbudget").is_some() {
                return Err(ConfigError(
                    "<spanbudget> is gone: the span budget is <ringcapacity>".into(),
                ));
            }
        }

        // `<slo>`: the settings of `POST /slo` under the same names without
        // their `_` (`window` for `window_s`).
        let slo = root
            .child("slo")
            .map(|node| {
                SloConfig::default().with_settings(|key| {
                    let element = if key == "window_s" { "window".into() } else { key.replace('_', "") };
                    node.child_text(&element).map(str::to_string)
                })
            })
            .transpose()
            .map_err(|e| ConfigError(format!("<slo>: {e}")))?;

        let mut node = "local".to_string();
        if let Some(cluster) = root.child("cluster") {
            for key in ["coordinator", "heartbeatms"] {
                if cluster.child(key).is_some() {
                    return Err(ConfigError(format!(
                        "<cluster> <{key}> is not read: the agent takes it from AgentConfig"
                    )));
                }
            }
            node = cluster
                .child_text("node")
                .filter(|id| !id.is_empty())
                .ok_or_else(|| ConfigError("<cluster> needs a non-empty <node>".into()))?
                .to_string();
        }

        Ok(WorkloadConfig {
            dbtype,
            benchmark,
            scale_factor,
            terminals,
            script: PhaseScript::new(phases),
            obs,
            slo,
            node,
        })
    }

    /// Build a [`RunConfig`] from this configuration.
    pub fn run_config(&self, seed: u64) -> RunConfig {
        RunConfig {
            terminals: self.terminals,
            script: self.script.clone(),
            seed,
            obs: self.obs,
            slo: self.slo.clone(),
            node: self.node.clone(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloTarget;

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<parameters>
    <dbtype>mysql</dbtype>
    <benchmark>tpcc</benchmark>
    <scalefactor>2</scalefactor>
    <terminals>8</terminals>
    <works>
        <work>
            <time>60</time>
            <rate>500</rate>
            <weights>45,43,4,4,4</weights>
        </work>
        <work>
            <time>30</time>
            <rate>unlimited</rate>
            <arrival>exponential</arrival>
            <thinktime>10</thinktime>
        </work>
    </works>
</parameters>"#;

    #[test]
    fn parse_sample() {
        let cfg = WorkloadConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.dbtype, "mysql");
        assert_eq!(cfg.benchmark, "tpcc");
        assert_eq!(cfg.scale_factor, 2.0);
        assert_eq!(cfg.terminals, 8);
        assert_eq!(cfg.script.phases.len(), 2);
        let p0 = &cfg.script.phases[0];
        assert_eq!(p0.rate, Rate::Limited(500.0));
        assert_eq!(p0.weights.as_deref(), Some(&[45.0, 43.0, 4.0, 4.0, 4.0][..]));
        let p1 = &cfg.script.phases[1];
        assert_eq!(p1.rate, Rate::Unlimited);
        assert_eq!(p1.arrival, ArrivalDist::Exponential);
        assert_eq!(p1.think_time_us, 10_000);
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(WorkloadConfig::parse("<parameters></parameters>").is_err());
        assert!(WorkloadConfig::parse(
            "<parameters><dbtype>x</dbtype><benchmark>y</benchmark><works></works></parameters>"
        )
        .is_err());
        for rate in ["fast", "inf", "1e999"] {
            let bad_rate = SAMPLE.replace("<rate>500</rate>", &format!("<rate>{rate}</rate>"));
            assert!(WorkloadConfig::parse(&bad_rate).is_err(), "<rate>{rate}</rate>");
        }
        let bad_time = SAMPLE.replace("<time>60</time>", "<time>-5</time>");
        assert!(WorkloadConfig::parse(&bad_time).is_err());
    }

    #[test]
    fn defaults() {
        let min = r#"<parameters><dbtype>d</dbtype><benchmark>b</benchmark>
            <works><work><time>5</time></work></works></parameters>"#;
        let cfg = WorkloadConfig::parse(min).unwrap();
        assert_eq!(cfg.scale_factor, 1.0);
        assert_eq!(cfg.terminals, 1);
        assert_eq!(cfg.script.phases[0].rate, Rate::Unlimited);
    }

    #[test]
    fn run_config_conversion() {
        let cfg = WorkloadConfig::parse(SAMPLE).unwrap();
        let rc = cfg.run_config(7);
        assert_eq!(rc.terminals, 8);
        assert_eq!(rc.seed, 7);
        assert_eq!(rc.script.phases.len(), 2);
        assert_eq!(rc.obs, ObsConfig::default());
    }

    #[test]
    fn parse_observability_block() {
        let xml = SAMPLE.replace(
            "</parameters>",
            "<observability><spans>sampled</spans><samplerate>0.25</samplerate>\
             <ringcapacity>1024</ringcapacity></observability></parameters>",
        );
        let cfg = WorkloadConfig::parse(&xml).unwrap();
        assert_eq!(cfg.obs.mode, SpanMode::Sampled);
        assert_eq!(cfg.obs.sample_ratio, 0.25);
        assert_eq!(cfg.obs.ring_capacity, 1024);
        // Carried into the run config verbatim.
        assert_eq!(cfg.run_config(1).obs, cfg.obs);
    }

    #[test]
    fn parse_slo_block() {
        let xml = SAMPLE.replace(
            "</parameters>",
            "<slo><target>p99</target><limitms>5</limitms>\
             <window>2</window><tickms>100</tickms><minrate>25</minrate>\
             <initialrate>150</initialrate><step>40</step><backoff>0.6</backoff>\
             </slo></parameters>",
        );
        let cfg = WorkloadConfig::parse(&xml).unwrap();
        let slo = cfg.slo.clone().unwrap();
        assert_eq!(slo.target, SloTarget::P99BelowUs(5_000));
        assert_eq!(slo.window_s, 2);
        assert_eq!(slo.tick_us, 100_000);
        assert_eq!(slo.min_rate, 25.0);
        assert_eq!(slo.initial_rate, 150.0);
        assert_eq!(slo.additive_step, 40.0);
        assert_eq!(slo.backoff, 0.6);
        // Carried into the run config verbatim.
        assert_eq!(cfg.run_config(1).slo, cfg.slo);
        assert_eq!(slo.max_rate, f64::INFINITY);
    }

    #[test]
    fn slo_defaults_and_validation() {
        assert!(WorkloadConfig::parse(SAMPLE).unwrap().slo.is_none());

        let max_tput = SAMPLE.replace(
            "</parameters>",
            "<slo><target>max-throughput</target></slo></parameters>",
        );
        let cfg = WorkloadConfig::parse(&max_tput).unwrap();
        let slo = cfg.slo.clone().unwrap();
        assert_eq!(slo.target, SloTarget::MaxThroughput);
        assert_eq!(slo.tick_us, SloConfig::default().tick_us);

        let bad_target = SAMPLE.replace(
            "</parameters>",
            "<slo><target>p42</target></slo></parameters>",
        );
        assert!(WorkloadConfig::parse(&bad_target).is_err());

        let pid = SAMPLE.replace("</parameters>", "<slo><law>pid</law></slo></parameters>");
        let err = WorkloadConfig::parse(&pid).unwrap_err();
        assert!(err.0.contains("law") && err.0.contains("AIMD"), "{err}");

        let bad_backoff = SAMPLE.replace(
            "</parameters>",
            "<slo><backoff>1.5</backoff></slo></parameters>",
        );
        assert!(WorkloadConfig::parse(&bad_backoff).is_err());
    }

    #[test]
    fn parse_cluster_block() {
        let with = |inner: &str| {
            SAMPLE.replace("</parameters>", &format!("<cluster>{inner}</cluster></parameters>"))
        };
        let cfg = WorkloadConfig::parse(&with("<node>agent-2</node>")).unwrap();
        assert_eq!(cfg.node, "agent-2");
        // Node identity flows into the run config.
        assert_eq!(cfg.run_config(1).node, "agent-2");
        // Standalone configs keep the default identity.
        assert_eq!(WorkloadConfig::parse(SAMPLE).unwrap().run_config(1).node, "local");
        assert!(WorkloadConfig::parse(&with("<node></node>")).is_err());
        // The agent's coordinator and heartbeat are not the workload file's:
        // refused by name, not parsed and dropped.
        for key in ["coordinator", "heartbeatms"] {
            let xml = with(&format!("<node>a</node><{key}>1</{key}>"));
            let err = WorkloadConfig::parse(&xml).unwrap_err();
            assert!(err.0.contains(key) && err.0.contains("AgentConfig"), "{err}");
        }
    }

    #[test]
    fn observability_defaults_and_validation() {
        let cfg = WorkloadConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.obs, ObsConfig::default());

        let off = SAMPLE.replace(
            "</parameters>",
            "<observability><spans>off</spans></observability></parameters>",
        );
        assert_eq!(WorkloadConfig::parse(&off).unwrap().obs.mode, SpanMode::Off);

        let bad_mode = SAMPLE.replace(
            "</parameters>",
            "<observability><spans>loud</spans></observability></parameters>",
        );
        assert!(WorkloadConfig::parse(&bad_mode).is_err());

        let bad_ratio = SAMPLE.replace(
            "</parameters>",
            "<observability><samplerate>1.5</samplerate></observability></parameters>",
        );
        assert!(WorkloadConfig::parse(&bad_ratio).is_err());

        let second_name = SAMPLE.replace(
            "</parameters>",
            "<observability><spanbudget>512</spanbudget></observability></parameters>",
        );
        let err = WorkloadConfig::parse(&second_name).unwrap_err();
        assert!(err.0.contains("<ringcapacity>"), "{err}");
    }
}
