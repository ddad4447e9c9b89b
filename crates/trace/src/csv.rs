//! Plain-CSV persistence for traces.
//!
//! The offline dependency set has no `serde_json`, so traces are stored as
//! three CSV files in a directory: `products.csv`, `reviewers.csv`, and
//! `reviews.csv` (campaign membership is encoded on the reviewer rows and
//! campaign targets are reconstructed from malicious co-reviews).

use crate::{
    Campaign, Product, ProductId, Review, Reviewer, ReviewerId, TraceDataset, TraceError,
    WorkerClass,
};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::path::Path;

/// Writes `trace` into `dir` (created if absent) as three CSV files.
///
/// Rows are formatted through a [`BufWriter`] so a million-reviewer
/// trace does not issue one syscall per line.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on any filesystem failure.
pub fn write_trace_csv(trace: &TraceDataset, dir: &Path) -> Result<(), TraceError> {
    fs::create_dir_all(dir)?;

    let mut products = BufWriter::new(fs::File::create(dir.join("products.csv"))?);
    writeln!(products, "id,true_quality")?;
    for p in trace.products() {
        writeln!(products, "{},{}", p.id.index(), p.true_quality)?;
    }
    products.flush()?;

    let mut reviewers = BufWriter::new(fs::File::create(dir.join("reviewers.csv"))?);
    writeln!(reviewers, "id,class,campaign,is_expert")?;
    for r in trace.reviewers() {
        writeln!(
            reviewers,
            "{},{},{},{}",
            r.id.index(),
            r.class.code(),
            r.campaign.map(|c| c.to_string()).unwrap_or_default(),
            r.is_expert as u8
        )?;
    }
    reviewers.flush()?;

    let mut reviews = BufWriter::new(fs::File::create(dir.join("reviews.csv"))?);
    writeln!(reviews, "reviewer,product,round,stars,length_chars,upvotes")?;
    for r in trace.reviews() {
        writeln!(
            reviews,
            "{},{},{},{},{},{}",
            r.reviewer.index(),
            r.product.index(),
            r.round,
            r.stars,
            r.length_chars,
            r.upvotes
        )?;
    }
    reviews.flush()?;
    Ok(())
}

/// Iterates a CSV file's data rows without loading the whole file into
/// one string: each line streams through a [`BufReader`], skipping the
/// header and blank lines. The callback receives `(1-based line, row)`.
/// A line ends at `\n` or `\r\n`; a line that is not UTF-8 is a
/// [`TraceError::Parse`] naming it.
fn for_each_row(
    path: &Path,
    mut row: impl FnMut(usize, &str) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut reader = BufReader::new(fs::File::open(path)?);
    let mut bytes = Vec::new();
    for n in 1.. {
        bytes.clear();
        if reader.read_until(b'\n', &mut bytes)? == 0 {
            break;
        }
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
        }
        let line = std::str::from_utf8(&bytes).map_err(|e| TraceError::Parse {
            line: n,
            message: format!("not UTF-8: {e}"),
        })?;
        if n == 1 || line.trim().is_empty() {
            continue;
        }
        row(n, line)?;
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(field: &str, line: usize, what: &str) -> Result<T, TraceError> {
    field.parse().map_err(|_| TraceError::Parse {
        line,
        message: format!("cannot parse {what} from {field:?}"),
    })
}

/// A float field as [`write_trace_csv`] writes it: finite.
fn finite(field: &str, line: usize, what: &str) -> Result<f64, TraceError> {
    let x: f64 = parse(field, line, what)?;
    x.is_finite().then_some(x).ok_or_else(|| TraceError::Parse {
        line,
        message: format!("{what} must be finite, got {field:?}"),
    })
}

/// The row's fields, which must be `len`.
fn fields<'a>(row: &'a str, n: usize, len: usize, what: &str) -> Result<Vec<&'a str>, TraceError> {
    let fields: Vec<&str> = row.split(',').collect();
    if fields.len() != len {
        let message = format!("expected {len} {what} fields, got {}", fields.len());
        return Err(TraceError::Parse { line: n, message });
    }
    Ok(fields)
}

/// Reads a trace previously written by [`write_trace_csv`].
///
/// Campaign ids in the file may be sparse: campaigns are renumbered
/// densely in ascending id order, and each member's
/// [`Reviewer::campaign`] names its renumbered campaign. Campaign targets
/// are reconstructed as the products each campaign's members reviewed.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on filesystem failures, [`TraceError::Parse`]
/// on malformed rows, and [`TraceError::InvalidDataset`] if the decoded
/// records are inconsistent.
pub fn read_trace_csv(dir: &Path) -> Result<TraceDataset, TraceError> {
    let mut products = Vec::new();
    for_each_row(&dir.join("products.csv"), |n, line| {
        let fields = fields(line, n, 2, "product")?;
        products.push(Product {
            id: ProductId(parse(fields[0], n, "product id")?),
            true_quality: finite(fields[1], n, "true_quality")?,
        });
        Ok(())
    })?;

    let mut reviewers = Vec::new();
    for_each_row(&dir.join("reviewers.csv"), |n, line| {
        let fields = fields(line, n, 4, "reviewer")?;
        let id: usize = parse(fields[0], n, "reviewer id")?;
        let class = WorkerClass::from_code(fields[1]).ok_or_else(|| TraceError::Parse {
            line: n,
            message: format!("unknown class code {:?}", fields[1]),
        })?;
        let campaign = if fields[2].is_empty() {
            None
        } else {
            Some(parse(fields[2], n, "campaign id")?)
        };
        let is_expert = match fields[3] {
            "0" => false,
            "1" => true,
            other => {
                let message = format!("is_expert must be 0 or 1, got {other:?}");
                return Err(TraceError::Parse { line: n, message });
            }
        };
        reviewers.push(Reviewer {
            id: ReviewerId(id),
            class,
            campaign,
            is_expert,
        });
        Ok(())
    })?;

    let mut reviews = Vec::new();
    for_each_row(&dir.join("reviews.csv"), |n, line| {
        let fields = fields(line, n, 6, "review")?;
        reviews.push(Review {
            reviewer: ReviewerId(parse(fields[0], n, "reviewer id")?),
            product: ProductId(parse(fields[1], n, "product id")?),
            round: parse(fields[2], n, "round")?,
            stars: parse(fields[3], n, "stars")?,
            length_chars: parse(fields[4], n, "length")?,
            upvotes: finite(fields[5], n, "upvotes")?,
        });
        Ok(())
    })?;

    // Rebuild campaigns. The file's campaign ids, in ascending order,
    // become the dense indices 0.., and each member's field is rewritten
    // to its campaign's index; then one pass over the reviews collects
    // the products each campaign's members reviewed. A review naming an
    // unknown reviewer is skipped here and rejected by `TraceDataset::new`.
    let mut dense: BTreeMap<usize, usize> = reviewers
        .iter()
        .filter_map(|r| r.campaign.map(|c| (c, 0)))
        .collect();
    for (index, slot) in dense.values_mut().enumerate() {
        *slot = index;
    }
    let mut campaigns: Vec<Campaign> = (0..dense.len())
        .map(|id| Campaign {
            id,
            members: Vec::new(),
            targets: Vec::new(),
        })
        .collect();
    for r in &mut reviewers {
        let Some(index) = r.campaign.and_then(|c| dense.get(&c).copied()) else {
            continue;
        };
        r.campaign = Some(index);
        if let Some(campaign) = campaigns.get_mut(index) {
            campaign.members.push(r.id);
        }
    }
    for rv in &reviews {
        let campaign = reviewers
            .get(rv.reviewer.index())
            .and_then(|r| r.campaign)
            .and_then(|c| campaigns.get_mut(c));
        if let Some(campaign) = campaign {
            campaign.targets.push(rv.product);
        }
    }
    for campaign in &mut campaigns {
        campaign.targets.sort_unstable();
        campaign.targets.dedup();
    }

    TraceDataset::new(products, reviewers, reviews, campaigns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticConfig;

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = SyntheticConfig::small(31).generate();
        let dir = std::env::temp_dir().join(format!("dcc_trace_rt_{}", std::process::id()));
        write_trace_csv(&trace, &dir).unwrap();
        let back = read_trace_csv(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();

        assert_eq!(back.products().len(), trace.products().len());
        assert_eq!(back.reviewers().len(), trace.reviewers().len());
        assert_eq!(back.reviews().len(), trace.reviews().len());
        assert_eq!(back.campaigns().len(), trace.campaigns().len());
        // Spot-check a review and derived quantities survive the roundtrip.
        let r0 = &trace.reviews()[0];
        let b0 = &back.reviews()[0];
        assert_eq!(r0.reviewer, b0.reviewer);
        assert_eq!(r0.length_chars, b0.length_chars);
        assert!((r0.upvotes - b0.upvotes).abs() < 1e-9);
        let id = trace.reviewers()[0].id;
        assert!((trace.expertise(id).unwrap() - back.expertise(id).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn missing_directory_is_io_error() {
        let err = read_trace_csv(Path::new("/nonexistent/dcc")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn malformed_rows_are_parse_errors() {
        let dir = std::env::temp_dir().join(format!("dcc_trace_bad_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("products.csv"), "id,true_quality\nnotanum,3.0\n").unwrap();
        fs::write(dir.join("reviewers.csv"), "id,class,campaign,is_expert\n").unwrap();
        fs::write(
            dir.join("reviews.csv"),
            "reviewer,product,round,stars,length_chars,upvotes\n",
        )
        .unwrap();
        let err = read_trace_csv(&dir).unwrap_err();
        fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, TraceError::Parse { .. }));
    }
}
