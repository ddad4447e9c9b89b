use dcc_core::CoreError;
use dcc_faults::Json;
use dcc_numerics::Fnv;
use dcc_trace::{TraceDataset, WorkerClass};

/// One event of the streaming protocol, carried as a JSON object per
/// line (`{"ev": "...", ...}`) over stdin, an events file, or derived
/// from an existing trace by [`events_from_trace`].
///
/// Identifiers must arrive dense: the `id` of a `product`/`join` event
/// is required to equal the number of entities of that kind seen so
/// far, and a `join` naming a campaign may either reference an existing
/// campaign index or the next unseen one (which creates it).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A product enters the platform.
    Product {
        /// Dense product id.
        id: usize,
        /// Ground-truth quality (used only for reporting, never by
        /// detection).
        quality: f64,
    },
    /// A worker joins. The ground-truth class is fixed at join time;
    /// under `SuspectSource::GroundTruth` it decides whether the worker
    /// is suspected.
    Join {
        /// Dense reviewer id.
        id: usize,
        /// Ground-truth behavioural class.
        class: WorkerClass,
        /// Collusion campaign index for collusive workers.
        campaign: Option<usize>,
        /// Whether the platform marks this worker as an expert.
        expert: bool,
    },
    /// A worker reviews a product.
    Review {
        /// The reviewing worker's id.
        worker: usize,
        /// The reviewed product's id.
        product: usize,
        /// The logical round the review belongs to.
        round: usize,
        /// Star rating in `[1, 5]`.
        stars: f64,
        /// Review length in characters.
        length: usize,
        /// Upvotes the review received.
        upvotes: f64,
    },
    /// A round boundary: the service recomputes detection, fits, and
    /// contracts over everything ingested so far and emits one output
    /// line.
    Round,
}

fn class_tag(class: WorkerClass) -> &'static str {
    match class {
        WorkerClass::Honest => "honest",
        WorkerClass::NonCollusiveMalicious => "ncm",
        WorkerClass::CollusiveMalicious => "cm",
    }
}

fn class_of(tag: &str) -> Result<WorkerClass, CoreError> {
    match tag {
        "honest" => Ok(WorkerClass::Honest),
        "ncm" => Ok(WorkerClass::NonCollusiveMalicious),
        "cm" => Ok(WorkerClass::CollusiveMalicious),
        other => Err(CoreError::InvalidInput(format!(
            "unknown worker class {other:?} (expected honest|ncm|cm)"
        ))),
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CoreError> {
    doc.get(key)
        .ok_or_else(|| CoreError::InvalidInput(format!("event is missing field {key:?}")))
}

fn idx_field(doc: &Json, key: &str) -> Result<usize, CoreError> {
    field(doc, key)?
        .as_idx()
        .ok_or_else(|| CoreError::InvalidInput(format!("event field {key:?} must be an index")))
}

fn num_field(doc: &Json, key: &str) -> Result<f64, CoreError> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| CoreError::InvalidInput(format!("event field {key:?} must be a number")))
}

impl ServeEvent {
    /// Encodes the event as a single JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            ServeEvent::Product { id, quality } => Json::Obj(vec![
                ("ev".into(), Json::Str("product".into())),
                ("id".into(), Json::idx(*id)),
                ("quality".into(), Json::num(*quality)),
            ]),
            ServeEvent::Join {
                id,
                class,
                campaign,
                expert,
            } => {
                let mut obj = vec![
                    ("ev".into(), Json::Str("join".into())),
                    ("id".into(), Json::idx(*id)),
                    ("class".into(), Json::Str(class_tag(*class).into())),
                ];
                if let Some(c) = campaign {
                    obj.push(("campaign".into(), Json::idx(*c)));
                }
                obj.push(("expert".into(), Json::Bool(*expert)));
                Json::Obj(obj)
            }
            ServeEvent::Review {
                worker,
                product,
                round,
                stars,
                length,
                upvotes,
            } => Json::Obj(vec![
                ("ev".into(), Json::Str("review".into())),
                ("worker".into(), Json::idx(*worker)),
                ("product".into(), Json::idx(*product)),
                ("round".into(), Json::idx(*round)),
                ("stars".into(), Json::num(*stars)),
                ("length".into(), Json::idx(*length)),
                ("upvotes".into(), Json::num(*upvotes)),
            ]),
            ServeEvent::Round => Json::Obj(vec![("ev".into(), Json::Str("round".into()))]),
        }
    }

    /// Folds the event into a running fingerprint (the serve
    /// checkpoint's, see [`crate::ckpt`]).
    ///
    /// Two events with indices below 2^53 fold alike exactly when their
    /// [`to_line`](Self::to_line)s are equal. A tag byte comes first and
    /// every field follows at a fixed width, so no two event sequences
    /// alias: indices as `u64`, `campaign` as a presence byte plus its
    /// value, floats by their bits. Every NaN folds as one canonical NaN,
    /// as `to_line` renders every NaN as `"NaN"`; −0 stays distinct
    /// from 0.
    pub fn fold_into(&self, h: &mut Fnv) {
        let num = |h: &mut Fnv, x: f64| h.write_f64(if x.is_nan() { f64::NAN } else { x });
        match self {
            ServeEvent::Product { id, quality } => {
                h.write_bytes(&[0]);
                h.write_usize(*id);
                num(h, *quality);
            }
            ServeEvent::Join {
                id,
                class,
                campaign,
                expert,
            } => {
                h.write_bytes(&[1]);
                h.write_usize(*id);
                h.write_bytes(&[*class as u8, u8::from(campaign.is_some())]);
                h.write_usize(campaign.unwrap_or(0));
                h.write_bytes(&[u8::from(*expert)]);
            }
            ServeEvent::Review {
                worker,
                product,
                round,
                stars,
                length,
                upvotes,
            } => {
                h.write_bytes(&[2]);
                h.write_usize(*worker);
                h.write_usize(*product);
                h.write_usize(*round);
                num(h, *stars);
                h.write_usize(*length);
                num(h, *upvotes);
            }
            ServeEvent::Round => h.write_bytes(&[3]),
        }
    }

    /// Decodes an event from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] naming the missing or
    /// ill-typed field.
    pub fn from_json(doc: &Json) -> Result<ServeEvent, CoreError> {
        let kind = field(doc, "ev")?.as_str().ok_or_else(|| {
            CoreError::InvalidInput("event field \"ev\" must be a string".into())
        })?;
        match kind {
            "product" => Ok(ServeEvent::Product {
                id: idx_field(doc, "id")?,
                quality: num_field(doc, "quality")?,
            }),
            "join" => Ok(ServeEvent::Join {
                id: idx_field(doc, "id")?,
                class: class_of(field(doc, "class")?.as_str().ok_or_else(|| {
                    CoreError::InvalidInput("event field \"class\" must be a string".into())
                })?)?,
                campaign: match doc.get("campaign") {
                    None | Some(Json::Null) => None,
                    Some(c) => Some(c.as_idx().ok_or_else(|| {
                        CoreError::InvalidInput(
                            "event field \"campaign\" must be an index".into(),
                        )
                    })?),
                },
                expert: field(doc, "expert")?.as_bool().ok_or_else(|| {
                    CoreError::InvalidInput("event field \"expert\" must be a bool".into())
                })?,
            }),
            "review" => Ok(ServeEvent::Review {
                worker: idx_field(doc, "worker")?,
                product: idx_field(doc, "product")?,
                round: idx_field(doc, "round")?,
                stars: num_field(doc, "stars")?,
                length: idx_field(doc, "length")?,
                upvotes: num_field(doc, "upvotes")?,
            }),
            "round" => Ok(ServeEvent::Round),
            other => Err(CoreError::InvalidInput(format!(
                "unknown event kind {other:?}"
            ))),
        }
    }

    /// Parses one JSON line into an event.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on malformed JSON or an
    /// unknown event shape.
    pub fn parse_line(line: &str) -> Result<ServeEvent, CoreError> {
        ServeEvent::from_json(&Json::parse(line)?)
    }

    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }
}

/// Derives the canonical event stream of an existing trace, for
/// `dcc serve --replay`: all products, then all joins (both in id
/// order), then the reviews grouped by their `round` field ascending
/// (insertion order within a round), with a `Round` event closing every
/// round group. A trailing `Round` is emitted even when the trace has
/// no reviews, so a replay always produces at least one output line.
pub fn events_from_trace(trace: &TraceDataset) -> Vec<ServeEvent> {
    let mut events = Vec::new();
    for p in trace.products() {
        events.push(ServeEvent::Product {
            id: p.id.index(),
            quality: p.true_quality,
        });
    }
    for r in trace.reviewers() {
        events.push(ServeEvent::Join {
            id: r.id.index(),
            class: r.class,
            campaign: r.campaign,
            expert: r.is_expert,
        });
    }
    // Stable sort keeps insertion order within each round.
    let mut order: Vec<usize> = (0..trace.reviews().len()).collect();
    order.sort_by_key(|&i| trace.reviews()[i].round);
    let mut current_round: Option<usize> = None;
    for i in order {
        let rv = &trace.reviews()[i];
        if let Some(prev) = current_round {
            if rv.round != prev {
                events.push(ServeEvent::Round);
            }
        }
        current_round = Some(rv.round);
        events.push(ServeEvent::Review {
            worker: rv.reviewer.index(),
            product: rv.product.index(),
            round: rv.round,
            stars: rv.stars,
            length: rv.length_chars,
            upvotes: rv.upvotes,
        });
    }
    events.push(ServeEvent::Round);
    events
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
    use super::*;
    use dcc_trace::SyntheticConfig;
    use proptest::prelude::*;

    #[test]
    fn events_round_trip_through_json() {
        let trace = SyntheticConfig::small(5).generate();
        for ev in events_from_trace(&trace).iter().take(500) {
            let line = ev.to_line();
            let back = ServeEvent::parse_line(&line).expect("round trip");
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn deeply_nested_line_is_a_typed_error() {
        // One line of 200,000 `[` once overflowed the parser's stack.
        let err = ServeEvent::parse_line(&"[".repeat(200_000)).expect_err("too deep");
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err:?}");
        assert!(err.to_string().contains("nest deeper than 128"), "{err}");
    }

    #[test]
    fn replay_stream_has_one_round_marker_per_round() {
        let trace = SyntheticConfig::small(5).generate();
        let events = events_from_trace(&trace);
        let rounds = events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Round))
            .count();
        let distinct: std::collections::BTreeSet<usize> =
            trace.reviews().iter().map(|r| r.round).collect();
        assert_eq!(rounds, distinct.len().max(1));
        assert!(matches!(events.last(), Some(ServeEvent::Round)));
    }

    #[test]
    fn malformed_events_are_rejected() {
        assert!(ServeEvent::parse_line("{}").is_err());
        assert!(ServeEvent::parse_line("{\"ev\":\"warp\"}").is_err());
        assert!(ServeEvent::parse_line("{\"ev\":\"join\",\"id\":0,\"class\":\"x\",\"expert\":true}").is_err());
        assert!(ServeEvent::parse_line("not json").is_err());
    }

    fn fingerprint(event: &ServeEvent) -> u64 {
        let mut h = Fnv::new();
        event.fold_into(&mut h);
        h.finish()
    }

    #[test]
    fn fingerprints_tell_apart_what_lines_tell_apart() {
        let review = |stars: f64| ServeEvent::Review {
            worker: 1,
            product: 2,
            round: 3,
            stars,
            length: 4,
            upvotes: 5.0,
        };
        let join = |campaign: Option<usize>| ServeEvent::Join {
            id: 0,
            class: WorkerClass::CollusiveMalicious,
            campaign,
            expert: false,
        };
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        for (a, b, same) in [
            (review(nan(0)), review(nan(0xbeef)), true),
            (review(nan(1)), review(-nan(1)), true),
            (review(0.0), review(-0.0), false),
            (join(None), join(Some(0)), false),
            (ServeEvent::Product { id: 0, quality: 0.0 }, ServeEvent::Round, false),
        ] {
            assert_eq!(a.to_line() == b.to_line(), same, "{a:?} vs {b:?}");
            assert_eq!(fingerprint(&a) == fingerprint(&b), same, "{a:?} vs {b:?}");
        }
    }

    /// Floats that encodings tell apart: NaNs of either sign and any
    /// payload, both zeros, both infinities, subnormals, and any bits.
    fn float(pick: u8, bits: u64) -> f64 {
        let (sign, fraction) = (bits & (1 << 63), bits & 0x000f_ffff_ffff_ffff);
        match pick % 8 {
            0 | 1 => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | fraction.max(1)),
            2 => 0.0,
            3 => -0.0,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::from_bits(sign | fraction),
            _ => f64::from_bits(bits),
        }
    }

    /// Indices below 2^53, which `to_line` renders exactly.
    fn index(pick: u8, bits: u64) -> usize {
        let max = (1u64 << 53) - 1;
        let x = match pick % 4 {
            0 => 0,
            1 => 1,
            2 => max,
            _ => bits & max,
        };
        usize::try_from(x).expect("64-bit usize")
    }

    /// An event built from one `(pick, bits)` draw per field: the kind,
    /// four indices, two floats, the class, `campaign` and `expert`.
    fn event(d: &[(u8, u64)]) -> ServeEvent {
        let idx = |i: usize| index(d[i].0, d[i].1);
        let num = |i: usize| float(d[i].0, d[i].1);
        let classes = [
            WorkerClass::Honest,
            WorkerClass::NonCollusiveMalicious,
            WorkerClass::CollusiveMalicious,
        ];
        match d[0].0 % 4 {
            0 => ServeEvent::Product { id: idx(1), quality: num(5) },
            1 => ServeEvent::Join {
                id: idx(1),
                class: classes[usize::from(d[7].0 % 3)],
                campaign: (!d[8].0.is_multiple_of(3)).then(|| idx(8)),
                expert: d[9].0 % 2 == 1,
            },
            2 => ServeEvent::Review {
                worker: idx(1),
                product: idx(2),
                round: idx(3),
                stars: num(5),
                length: idx(4),
                upvotes: num(6),
            },
            _ => ServeEvent::Round,
        }
    }

    fn draws() -> impl Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((any::<u8>(), any::<u64>()), 10)
    }

    /// Replacement field values: every other JSON type, and numbers that
    /// are not indices.
    const REPLACEMENTS: [&str; 8] = ["null", "true", "\"x\"", "[]", "{}", "1e300", "-1", "0.5"];

    /// JSON punctuation, literals and the protocol's keys, for byte soup.
    const SOUP: &[u8] = br#"{}[]:,"\ 019-.eE+evprodutjinwclasfNaIy"#;

    proptest! {
        #[test]
        fn valid_events_round_trip_bit_for_bit(d in draws()) {
            let event = event(&d);
            let back = ServeEvent::parse_line(&event.to_line()).unwrap();
            // Debug renders floats exactly, and every NaN as NaN.
            prop_assert_eq!(format!("{back:?}"), format!("{event:?}"));
        }

        #[test]
        fn fingerprints_are_equal_iff_lines_are(d in draws(), redraws in draws()) {
            // Each `b` redraws one field of `a`: a value of the same sort
            // (another NaN payload, another index), or of any sort.
            let a = event(&d);
            for (slot, &(pick, bits)) in redraws.iter().enumerate() {
                for pick in [d[slot].0, pick] {
                    let mut e = d.clone();
                    e[slot] = (pick, bits);
                    let b = event(&e);
                    prop_assert_eq!(
                        fingerprint(&a) == fingerprint(&b),
                        a.to_line() == b.to_line(),
                        "{:?} vs {:?}",
                        a,
                        b
                    );
                }
            }
        }

        #[test]
        fn parse_line_is_total(
            kind in 0u8..3,
            d in draws(),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            pick in any::<usize>(),
        ) {
            let valid = event(&d).to_line();
            let line = match kind {
                0 => bytes
                    .iter()
                    .map(|&b| match b {
                        0..=0xdf => char::from(SOUP[usize::from(b) % SOUP.len()]),
                        _ => char::from(b),
                    })
                    .collect(),
                1 => valid[..pick % (valid.len() + 1)].to_string(),
                _ => {
                    let Json::Obj(mut members) = Json::parse(&valid).unwrap() else {
                        panic!("an event line is an object");
                    };
                    let replacement = REPLACEMENTS[pick / 7 % REPLACEMENTS.len()];
                    let at = pick % members.len();
                    members[at].1 = Json::parse(replacement).unwrap();
                    Json::Obj(members).to_string()
                }
            };
            match ServeEvent::parse_line(&line) {
                Ok(_) | Err(CoreError::InvalidInput(_)) => {}
                Err(other) => {
                    prop_assert!(false, "{line:?}: unexpected error kind: {other}");
                }
            }
        }
    }
}
