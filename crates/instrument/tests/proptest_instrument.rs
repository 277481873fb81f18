//! Property tests: instrumentation invariants under arbitrary HTML and
//! request streams.

use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Uri};
use botwall_instrument::jsgen::{self, JsSpec, Obfuscation};
use botwall_instrument::{Classified, InstrumentConfig, Instrumenter, KeyOutcome};
use botwall_sessions::SimTime;
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn page_uri() -> Uri {
    "http://prop.example/page.html".parse().unwrap()
}

proptest! {
    /// Whatever the input HTML, rewriting injects all enabled probes and
    /// the output still contains the original text content.
    #[test]
    fn rewrite_preserves_content_and_injects(html in "[ -~]{0,300}") {
        let mut ins = Instrumenter::new(InstrumentConfig::default(), 1);
        let (out, manifest) =
            ins.instrument_page(&html, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        prop_assert!(manifest.css_probe.is_some());
        prop_assert!(manifest.mouse_beacon.is_some());
        prop_assert!(manifest.hidden_link.is_some());
        prop_assert!(out.len() >= html.len());
        prop_assert_eq!(manifest.html_overhead, out.len() - html.len());
        // The original content survives (rewriting only inserts).
        if !html.is_empty() {
            prop_assert!(out.contains(&html) || html.to_ascii_lowercase().contains("<body")
                || html.to_ascii_lowercase().contains("</head>"),
                "original content lost");
        }
    }

    /// Every URL in the manifest classifies back to the right category,
    /// and the mouse beacon validates exactly once for the right client.
    #[test]
    fn manifest_urls_classify_consistently(client in 1u32..1000, seed in 0u64..500) {
        let mut ins = Instrumenter::new(InstrumentConfig::default(), seed);
        let ip = ClientIp::new(client);
        let (_, m) = ins.instrument_page("<html><body></body></html>", &page_uri(), ip, SimTime::ZERO);
        let get = |uri: &Uri, from: ClientIp| {
            Request::builder(Method::Get, uri.to_string())
                .client(from)
                .build()
                .unwrap()
        };
        // CSS probe classifies as probe.
        let css = m.css_probe.clone().unwrap();
        prop_assert!(matches!(
            ins.classify(&get(&css, ip), SimTime::ZERO),
            Classified::Probe(_)
        ));
        // Mouse beacon: valid once, replay after.
        let beacon = m.mouse_beacon.clone().unwrap();
        match ins.classify(&get(&beacon, ip), SimTime::ZERO) {
            Classified::MouseBeacon { outcome, .. } => prop_assert_eq!(outcome, KeyOutcome::Valid),
            other => prop_assert!(false, "not a beacon: {other:?}"),
        }
        match ins.classify(&get(&beacon, ip), SimTime::ZERO) {
            Classified::MouseBeacon { outcome, .. } => prop_assert_eq!(outcome, KeyOutcome::Replay),
            other => prop_assert!(false, "not a beacon: {other:?}"),
        }
        // Every decoy classifies as a decoy for this client.
        for d in &m.decoy_beacons {
            match ins.classify(&get(d, ip), SimTime::ZERO) {
                Classified::MouseBeacon { outcome, .. } => {
                    prop_assert_eq!(outcome, KeyOutcome::Decoy)
                }
                other => prop_assert!(false, "not a beacon: {other:?}"),
            }
        }
    }

    /// Ordinary site URLs never classify as instrumentation.
    #[test]
    fn ordinary_urls_stay_ordinary(path in "/[a-z]{1,10}(\\.(html|jpg|css|js))?") {
        let mut ins = Instrumenter::new(InstrumentConfig::default(), 2);
        ins.instrument_page("<html></html>", &page_uri(), ClientIp::new(1), SimTime::ZERO);
        let uri = format!("http://prop.example{path}");
        let req = Request::builder(Method::Get, uri).client(ClientIp::new(1)).build().unwrap();
        prop_assert_eq!(ins.classify(&req, SimTime::ZERO), Classified::Ordinary);
    }

    /// Manifests for different clients never share beacon keys.
    #[test]
    fn keys_are_client_unique(a in 1u32..500, b in 501u32..1000) {
        let mut ins = Instrumenter::new(InstrumentConfig::default(), 3);
        let (_, ma) = ins.instrument_page("<html></html>", &page_uri(), ClientIp::new(a), SimTime::ZERO);
        let (_, mb) = ins.instrument_page("<html></html>", &page_uri(), ClientIp::new(b), SimTime::ZERO);
        prop_assert_ne!(ma.mouse_beacon, mb.mouse_beacon);
        prop_assert_ne!(ma.css_probe, mb.css_probe);
    }

    /// The page names its handler from the script seed alone; the script
    /// built later from the same seed must define exactly that name,
    /// under every obfuscation level. Four seeds per case: 1,024 seeds
    /// per level at the default case count.
    #[test]
    fn handler_name_predicts_the_generated_handler(seed in any::<u64>(), decoys in 0usize..6) {
        for obfuscation in [Obfuscation::None, Obfuscation::Lexical, Obfuscation::SplitStrings] {
            let spec = JsSpec {
                mouse_beacon: "http://prop.example/m.jpg".parse().unwrap(),
                decoys: (0..decoys)
                    .map(|i| format!("http://prop.example/d{i}.jpg").parse().unwrap())
                    .collect(),
                agent_beacon: "http://prop.example/a.gif".parse().unwrap(),
                obfuscation,
                target_size: 1024,
            };
            for seed in (0..4).map(|i| seed.wrapping_add(i)) {
                let js = jsgen::generate(&spec, &mut ChaCha8Rng::seed_from_u64(seed));
                prop_assert_eq!(jsgen::handler_name(obfuscation, seed), js.handler_name);
            }
        }
    }
}
