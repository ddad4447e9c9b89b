use dcc_core::CoreError;
use dcc_faults::Json;
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
    /// A worker joins. The ground-truth class is fixed at join time —
    /// the streaming service's incremental detection relies on suspect
    /// status never changing afterwards (`SuspectSource::GroundTruth`).
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
    use super::*;
    use dcc_trace::SyntheticConfig;

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
}
