//! The `dcc-trace-col/2` binary columnar trace format.
//!
//! Row-oriented CSV caps both ingest speed and memory layout well below
//! the ROADMAP's million-worker target: every load re-parses text and
//! materializes one struct per row. This module stores a trace as
//! per-column contiguous little-endian sections behind a fixed,
//! checksummed header, so loading is a single `fs::read`, a header
//! validation and one word-wise checksum pass over the body (O(n), at
//! memory speed), and column access borrows directly from the loaded
//! byte buffer without re-parsing or per-row materialization.
//!
//! ## File layout
//!
//! All integers are little-endian. The header is 72 bytes:
//!
//! | offset | bytes | field |
//! |---|---|---|
//! | 0  | 8 | magic `b"DCCTRCOL"` |
//! | 8  | 4 | version (`2`) |
//! | 12 | 4 | reserved (`0`) |
//! | 16 | 8 | `n_products` |
//! | 24 | 8 | `n_reviewers` |
//! | 32 | 8 | `n_reviews` |
//! | 40 | 8 | `n_campaigns` |
//! | 48 | 8 | `n_campaign_members` |
//! | 56 | 8 | `n_campaign_targets` |
//! | 64 | 8 | [`fnv_words`] checksum of every byte after the header |
//!
//! The body is the following column sections, contiguous and in this
//! order (`Option<usize>` campaign membership encodes `None` as
//! `u64::MAX`; CSR = offsets array of length `n_campaigns + 1` starting
//! at 0 and ending at the member/target count):
//!
//! 1. `products.true_quality` — `n_products × f64`
//! 2. `reviewers.class` — `n_reviewers × u8` (0 = H, 1 = N, 2 = C)
//! 3. `reviewers.campaign` — `n_reviewers × u64`
//! 4. `reviewers.is_expert` — `n_reviewers × u8`
//! 5. `reviews.reviewer` — `n_reviews × u64`
//! 6. `reviews.product` — `n_reviews × u64`
//! 7. `reviews.round` — `n_reviews × u64`
//! 8. `reviews.stars` — `n_reviews × f64`
//! 9. `reviews.length_chars` — `n_reviews × u64`
//! 10. `reviews.upvotes` — `n_reviews × f64`
//! 11. `campaigns.member_offsets` — CSR `(n_campaigns + 1) × u64`
//! 12. `campaigns.members` — `n_campaign_members × u64`
//! 13. `campaigns.target_offsets` — CSR `(n_campaigns + 1) × u64`
//! 14. `campaigns.targets` — `n_campaign_targets × u64`
//!
//! See `docs/trace.md` for the full specification.

use crate::{
    Campaign, Product, ProductId, Review, Reviewer, ReviewerId, TraceDataset, TraceError,
    WorkerClass,
};
use dcc_numerics::fnv_words;
use std::fs;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

/// The 8-byte file magic.
pub const COLUMNAR_MAGIC: [u8; 8] = *b"DCCTRCOL";
/// The format version this module reads and writes.
pub const COLUMNAR_VERSION: u32 = 2;
/// Sentinel for "no campaign" in the reviewer campaign column.
const NO_CAMPAIGN: u64 = u64::MAX;
/// Header length in bytes (see the module docs for the field layout).
const HEADER_LEN: usize = 72;

fn corrupt(message: impl Into<String>) -> TraceError {
    TraceError::Corrupt(message.into())
}

/// The decoded fixed header of a columnar trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    n_products: usize,
    n_reviewers: usize,
    n_reviews: usize,
    n_campaigns: usize,
    n_members: usize,
    n_targets: usize,
    checksum: u64,
}

impl Header {
    /// Body length implied by the counts, or `None` on overflow.
    fn body_len(&self) -> Option<usize> {
        let mut total = 0usize;
        for (count, width) in [
            (self.n_products, 8),
            (self.n_reviewers, 1),
            (self.n_reviewers, 8),
            (self.n_reviewers, 1),
            (self.n_reviews, 8 * 6),
            (self.n_campaigns.checked_add(1)?, 8 * 2),
            (self.n_members, 8),
            (self.n_targets, 8),
        ] {
            total = total.checked_add(count.checked_mul(width)?)?;
        }
        Some(total)
    }
}

fn read_u64_at(buf: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    if let Some(slice) = buf.get(offset..offset + 8) {
        b.copy_from_slice(slice);
    }
    u64::from_le_bytes(b)
}

fn read_u32_at(buf: &[u8], offset: usize) -> u32 {
    let mut b = [0u8; 4];
    if let Some(slice) = buf.get(offset..offset + 4) {
        b.copy_from_slice(slice);
    }
    u32::from_le_bytes(b)
}

/// The `i`-th 8-byte word of `bytes`, or `None` past the end (an index
/// whose byte offset overflows `usize` included).
fn word_at(bytes: &[u8], i: usize) -> Option<[u8; 8]> {
    let start = i.checked_mul(8)?;
    let s = bytes.get(start..start.checked_add(8)?)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(b)
}

fn usize_at(buf: &[u8], offset: usize, what: &str) -> Result<usize, TraceError> {
    usize::try_from(read_u64_at(buf, offset))
        .map_err(|_| corrupt(format!("{what} does not fit in usize")))
}

/// A zero-copy `u64` column: a borrowed little-endian byte section of
/// the loaded buffer, decoded element-wise on access (`from_le_bytes`
/// compiles to a plain load on little-endian targets).
#[derive(Debug, Clone, Copy)]
pub struct ColU64<'a> {
    bytes: &'a [u8],
    _marker: PhantomData<u64>,
}

impl<'a> ColU64<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Element `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<u64> {
        word_at(self.bytes, i).map(u64::from_le_bytes)
    }

    /// Iterates the column in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.bytes.chunks_exact(8).map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            u64::from_le_bytes(b)
        })
    }
}

/// A zero-copy `f64` column over a borrowed little-endian byte section.
#[derive(Debug, Clone, Copy)]
pub struct ColF64<'a> {
    bytes: &'a [u8],
    _marker: PhantomData<f64>,
}

impl<'a> ColF64<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Element `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        word_at(self.bytes, i).map(f64::from_le_bytes)
    }

    /// Iterates the column in order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.bytes.chunks_exact(8).map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            f64::from_le_bytes(b)
        })
    }
}

/// All columns of a loaded trace, borrowed directly from the underlying
/// byte buffer — the struct-of-arrays view the hot path consumes.
#[derive(Debug, Clone, Copy)]
pub struct TraceColumns<'a> {
    /// Products: ground-truth quality per product (ids are dense `0..n`).
    pub product_quality: ColF64<'a>,
    /// Reviewers: class code per reviewer (0 = H, 1 = N, 2 = C).
    pub reviewer_class: &'a [u8],
    /// Reviewers: campaign id per reviewer (`u64::MAX` = none).
    pub reviewer_campaign: ColU64<'a>,
    /// Reviewers: expert flag per reviewer (0/1).
    pub reviewer_expert: &'a [u8],
    /// Reviews: reviewer index per review.
    pub review_reviewer: ColU64<'a>,
    /// Reviews: product index per review.
    pub review_product: ColU64<'a>,
    /// Reviews: round per review.
    pub review_round: ColU64<'a>,
    /// Reviews: star rating per review.
    pub review_stars: ColF64<'a>,
    /// Reviews: length in characters per review.
    pub review_length: ColU64<'a>,
    /// Reviews: upvotes (feedback) per review.
    pub review_upvotes: ColF64<'a>,
    /// Campaign membership CSR offsets (length `n_campaigns + 1`).
    pub campaign_member_offsets: ColU64<'a>,
    /// Campaign membership CSR data (reviewer indices).
    pub campaign_members: ColU64<'a>,
    /// Campaign target CSR offsets (length `n_campaigns + 1`).
    pub campaign_target_offsets: ColU64<'a>,
    /// Campaign target CSR data (product indices).
    pub campaign_targets: ColU64<'a>,
}

/// A loaded `dcc-trace-col/2` trace: the raw byte buffer plus its
/// validated header. Column accessors borrow sections of the buffer
/// directly (see [`TraceColumns`]); nothing is re-parsed after load.
#[derive(Debug, Clone)]
pub struct ColumnarTrace {
    buf: Vec<u8>,
    header: Header,
}

impl ColumnarTrace {
    /// Validates and adopts a raw file image.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] on a short or oversized buffer,
    /// bad magic, any version but [`COLUMNAR_VERSION`], or checksum
    /// mismatch.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, TraceError> {
        if buf.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "truncated header: {} bytes, need {HEADER_LEN}",
                buf.len()
            )));
        }
        if buf.get(0..8) != Some(&COLUMNAR_MAGIC[..]) {
            return Err(corrupt("bad magic: not a dcc-trace-col file"));
        }
        let version = read_u32_at(&buf, 8);
        if version != COLUMNAR_VERSION {
            return Err(corrupt(format!(
                "unsupported version {version}: this reader handles version \
                 {COLUMNAR_VERSION} only; convert the trace again from its CSV \
                 directory with `dcc trace convert DIR FILE`"
            )));
        }
        let header = Header {
            n_products: usize_at(&buf, 16, "n_products")?,
            n_reviewers: usize_at(&buf, 24, "n_reviewers")?,
            n_reviews: usize_at(&buf, 32, "n_reviews")?,
            n_campaigns: usize_at(&buf, 40, "n_campaigns")?,
            n_members: usize_at(&buf, 48, "n_campaign_members")?,
            n_targets: usize_at(&buf, 56, "n_campaign_targets")?,
            checksum: read_u64_at(&buf, 64),
        };
        let body = header
            .body_len()
            .ok_or_else(|| corrupt("section sizes overflow"))?;
        let expected = HEADER_LEN
            .checked_add(body)
            .ok_or_else(|| corrupt("file size overflows"))?;
        if buf.len() != expected {
            return Err(corrupt(format!(
                "body length mismatch: header implies {expected} bytes, file has {}",
                buf.len()
            )));
        }
        let computed = fnv_words(&buf[HEADER_LEN..]);
        if computed != header.checksum {
            return Err(corrupt(format!(
                "checksum mismatch: header says {:016x}, body hashes to {computed:016x}",
                header.checksum
            )));
        }
        Ok(ColumnarTrace { buf, header })
    }

    /// Converts an in-memory dataset to columnar form.
    pub fn from_dataset(trace: &TraceDataset) -> Self {
        let mut b = ColumnarBuilder::new();
        for p in trace.products() {
            b.push_product(p.true_quality);
        }
        for r in trace.reviewers() {
            b.push_reviewer(r.class, r.campaign, r.is_expert);
        }
        for r in trace.reviews() {
            b.push_review(
                r.reviewer.index(),
                r.product.index(),
                r.round,
                r.stars,
                r.length_chars,
                r.upvotes,
            );
        }
        for c in trace.campaigns() {
            b.push_campaign(
                c.members.iter().map(|m| m.index()),
                c.targets.iter().map(|t| t.index()),
            );
        }
        b.finish()
    }

    /// The raw file image (header + body).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of products.
    pub fn n_products(&self) -> usize {
        self.header.n_products
    }

    /// Number of reviewers (the `trace.workers` gauge).
    pub fn n_reviewers(&self) -> usize {
        self.header.n_reviewers
    }

    /// Number of reviews.
    pub fn n_reviews(&self) -> usize {
        self.header.n_reviews
    }

    /// Number of collusion campaigns.
    pub fn n_campaigns(&self) -> usize {
        self.header.n_campaigns
    }

    /// The stored [`fnv_words`] body checksum (doubles as a content
    /// fingerprint for caching layers).
    pub fn checksum(&self) -> u64 {
        self.header.checksum
    }

    fn ranges(&self) -> [Range<usize>; 14] {
        let h = &self.header;
        let mut cursor = HEADER_LEN;
        let mut next = |len: usize| {
            let start = cursor;
            cursor += len;
            start..cursor
        };
        [
            next(h.n_products * 8),      // product_quality
            next(h.n_reviewers),         // reviewer_class
            next(h.n_reviewers * 8),     // reviewer_campaign
            next(h.n_reviewers),         // reviewer_expert
            next(h.n_reviews * 8),       // review_reviewer
            next(h.n_reviews * 8),       // review_product
            next(h.n_reviews * 8),       // review_round
            next(h.n_reviews * 8),       // review_stars
            next(h.n_reviews * 8),       // review_length
            next(h.n_reviews * 8),       // review_upvotes
            next((h.n_campaigns + 1) * 8), // member offsets
            next(h.n_members * 8),       // members
            next((h.n_campaigns + 1) * 8), // target offsets
            next(h.n_targets * 8),       // targets
        ]
    }

    /// The zero-copy struct-of-arrays view: every column borrows its
    /// byte section of the loaded buffer directly.
    pub fn columns(&self) -> TraceColumns<'_> {
        let [pq, rc, rcamp, rexp, vw, vp, vr, vs, vl, vu, mo, mm, to, tt] = self.ranges();
        let col_u64 = |r: Range<usize>| ColU64 {
            bytes: &self.buf[r],
            _marker: PhantomData,
        };
        let col_f64 = |r: Range<usize>| ColF64 {
            bytes: &self.buf[r],
            _marker: PhantomData,
        };
        TraceColumns {
            product_quality: col_f64(pq),
            reviewer_class: &self.buf[rc],
            reviewer_campaign: col_u64(rcamp),
            reviewer_expert: &self.buf[rexp],
            review_reviewer: col_u64(vw),
            review_product: col_u64(vp),
            review_round: col_u64(vr),
            review_stars: col_f64(vs),
            review_length: col_u64(vl),
            review_upvotes: col_f64(vu),
            campaign_member_offsets: col_u64(mo),
            campaign_members: col_u64(mm),
            campaign_target_offsets: col_u64(to),
            campaign_targets: col_u64(tt),
        }
    }

    /// Materializes the row-oriented [`TraceDataset`] (which re-validates
    /// all referential invariants).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] on malformed CSR offsets or class
    /// codes, and propagates [`TraceDataset::new`] validation failures.
    pub fn to_dataset(&self) -> Result<TraceDataset, TraceError> {
        let cols = self.columns();

        let products: Vec<Product> = cols
            .product_quality
            .iter()
            .enumerate()
            .map(|(i, q)| Product {
                id: ProductId(i),
                true_quality: q,
            })
            .collect();

        let mut reviewers = Vec::with_capacity(self.header.n_reviewers);
        for i in 0..self.header.n_reviewers {
            let code = cols.reviewer_class.get(i).copied().unwrap_or(u8::MAX);
            let class = class_from_u8(code).ok_or_else(|| {
                corrupt(format!("reviewer {i} has unknown class code {code}"))
            })?;
            let campaign = match cols.reviewer_campaign.get(i).unwrap_or(NO_CAMPAIGN) {
                NO_CAMPAIGN => None,
                c => Some(usize::try_from(c).map_err(|_| {
                    corrupt(format!("reviewer {i} campaign id does not fit in usize"))
                })?),
            };
            reviewers.push(Reviewer {
                id: ReviewerId(i),
                class,
                campaign,
                is_expert: cols.reviewer_expert.get(i).copied().unwrap_or(0) != 0,
            });
        }

        let mut reviews = Vec::with_capacity(self.header.n_reviews);
        for i in 0..self.header.n_reviews {
            reviews.push(Review {
                reviewer: ReviewerId(col_usize(&cols.review_reviewer, i, "review reviewer")?),
                product: ProductId(col_usize(&cols.review_product, i, "review product")?),
                round: col_usize(&cols.review_round, i, "review round")?,
                stars: cols.review_stars.get(i).unwrap_or(f64::NAN),
                length_chars: col_usize(&cols.review_length, i, "review length")?,
                upvotes: cols.review_upvotes.get(i).unwrap_or(f64::NAN),
            });
        }

        let members = csr(
            &cols.campaign_member_offsets,
            &cols.campaign_members,
            self.header.n_campaigns,
            "member",
        )?;
        let targets = csr(
            &cols.campaign_target_offsets,
            &cols.campaign_targets,
            self.header.n_campaigns,
            "target",
        )?;
        let campaigns: Vec<Campaign> = members
            .into_iter()
            .zip(targets)
            .enumerate()
            .map(|(id, (ms, ts))| Campaign {
                id,
                members: ms.into_iter().map(ReviewerId).collect(),
                targets: ts.into_iter().map(ProductId).collect(),
            })
            .collect();

        TraceDataset::new(products, reviewers, reviews, campaigns)
    }

    /// Writes the file image to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on any filesystem failure.
    pub fn write_file(&self, path: &Path) -> Result<(), TraceError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, &self.buf)?;
        Ok(())
    }
}

fn col_usize(col: &ColU64<'_>, i: usize, what: &str) -> Result<usize, TraceError> {
    let v = col
        .get(i)
        .ok_or_else(|| corrupt(format!("{what} column too short at {i}")))?;
    usize::try_from(v).map_err(|_| corrupt(format!("{what} {v} does not fit in usize")))
}

fn class_from_u8(code: u8) -> Option<WorkerClass> {
    match code {
        0 => Some(WorkerClass::Honest),
        1 => Some(WorkerClass::NonCollusiveMalicious),
        2 => Some(WorkerClass::CollusiveMalicious),
        _ => None,
    }
}

fn class_to_u8(class: WorkerClass) -> u8 {
    match class {
        WorkerClass::Honest => 0,
        WorkerClass::NonCollusiveMalicious => 1,
        WorkerClass::CollusiveMalicious => 2,
    }
}

/// Decodes one CSR (offsets + data) pair into per-campaign index lists,
/// validating monotonicity and bounds.
fn csr(
    offsets: &ColU64<'_>,
    data: &ColU64<'_>,
    n_campaigns: usize,
    what: &str,
) -> Result<Vec<Vec<usize>>, TraceError> {
    let mut out = Vec::with_capacity(n_campaigns);
    let mut prev = 0usize;
    for c in 0..n_campaigns {
        let lo = col_usize(offsets, c, what)?;
        let hi = col_usize(offsets, c + 1, what)?;
        if lo != prev || hi < lo || hi > data.len() {
            return Err(corrupt(format!(
                "campaign {c} has malformed {what} offsets [{lo}, {hi}) over {} entries",
                data.len()
            )));
        }
        prev = hi;
        let mut items = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            items.push(col_usize(data, i, what)?);
        }
        out.push(items);
    }
    if prev != data.len() {
        return Err(corrupt(format!(
            "{what} CSR covers {prev} of {} entries",
            data.len()
        )));
    }
    Ok(out)
}

/// Streaming builder for [`ColumnarTrace`]: rows are appended directly
/// into per-column little-endian buffers, so producers (the synthetic
/// generator in particular) never materialize `Vec<Reviewer>` /
/// `Vec<Review>` struct rows.
#[derive(Debug, Default)]
pub struct ColumnarBuilder {
    product_quality: Vec<u8>,
    reviewer_class: Vec<u8>,
    reviewer_campaign: Vec<u8>,
    reviewer_expert: Vec<u8>,
    review_reviewer: Vec<u8>,
    review_product: Vec<u8>,
    review_round: Vec<u8>,
    review_stars: Vec<u8>,
    review_length: Vec<u8>,
    review_upvotes: Vec<u8>,
    member_offsets: Vec<u8>,
    members: Vec<u8>,
    target_offsets: Vec<u8>,
    targets: Vec<u8>,
    n_campaigns: usize,
    n_members: usize,
    n_targets: usize,
}

impl ColumnarBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ColumnarBuilder::default()
    }

    /// Appends one product (ids are implicit: dense insertion order).
    pub fn push_product(&mut self, true_quality: f64) {
        self.product_quality
            .extend_from_slice(&true_quality.to_le_bytes());
    }

    /// The quality of an already-pushed product (generators need to look
    /// back at the catalogue while emitting reviews).
    pub fn product_quality(&self, i: usize) -> Option<f64> {
        word_at(&self.product_quality, i).map(f64::from_le_bytes)
    }

    /// Number of products pushed so far.
    pub fn n_products(&self) -> usize {
        self.product_quality.len() / 8
    }

    /// Number of reviewers pushed so far.
    pub fn n_reviewers(&self) -> usize {
        self.reviewer_class.len()
    }

    /// Number of reviews pushed so far.
    pub fn n_reviews(&self) -> usize {
        self.review_stars.len() / 8
    }

    /// Appends one reviewer (ids are implicit: dense insertion order).
    pub fn push_reviewer(&mut self, class: WorkerClass, campaign: Option<usize>, is_expert: bool) {
        self.reviewer_class.push(class_to_u8(class));
        let camp = campaign.map_or(NO_CAMPAIGN, |c| c as u64);
        self.reviewer_campaign.extend_from_slice(&camp.to_le_bytes());
        self.reviewer_expert.push(u8::from(is_expert));
    }

    /// Appends one review.
    pub fn push_review(
        &mut self,
        reviewer: usize,
        product: usize,
        round: usize,
        stars: f64,
        length_chars: usize,
        upvotes: f64,
    ) {
        self.review_reviewer
            .extend_from_slice(&(reviewer as u64).to_le_bytes());
        self.review_product
            .extend_from_slice(&(product as u64).to_le_bytes());
        self.review_round
            .extend_from_slice(&(round as u64).to_le_bytes());
        self.review_stars.extend_from_slice(&stars.to_le_bytes());
        self.review_length
            .extend_from_slice(&(length_chars as u64).to_le_bytes());
        self.review_upvotes.extend_from_slice(&upvotes.to_le_bytes());
    }

    /// Appends one campaign with its member reviewer indices and target
    /// product indices.
    pub fn push_campaign(
        &mut self,
        members: impl IntoIterator<Item = usize>,
        targets: impl IntoIterator<Item = usize>,
    ) {
        for m in members {
            self.members.extend_from_slice(&(m as u64).to_le_bytes());
            self.n_members += 1;
        }
        for t in targets {
            self.targets.extend_from_slice(&(t as u64).to_le_bytes());
            self.n_targets += 1;
        }
        self.n_campaigns += 1;
        self.member_offsets
            .extend_from_slice(&(self.n_members as u64).to_le_bytes());
        self.target_offsets
            .extend_from_slice(&(self.n_targets as u64).to_le_bytes());
    }

    /// Assembles the final file image: header, column sections, checksum.
    pub fn finish(self) -> ColumnarTrace {
        let header = Header {
            n_products: self.product_quality.len() / 8,
            n_reviewers: self.reviewer_class.len(),
            n_reviews: self.review_stars.len() / 8,
            n_campaigns: self.n_campaigns,
            n_members: self.n_members,
            n_targets: self.n_targets,
            checksum: 0,
        };
        let body = header.body_len().unwrap_or(0);
        let mut buf = Vec::with_capacity(HEADER_LEN + body);
        buf.extend_from_slice(&COLUMNAR_MAGIC);
        buf.extend_from_slice(&COLUMNAR_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        for count in [
            header.n_products,
            header.n_reviewers,
            header.n_reviews,
            header.n_campaigns,
            header.n_members,
            header.n_targets,
        ] {
            buf.extend_from_slice(&(count as u64).to_le_bytes());
        }
        buf.extend_from_slice(&0u64.to_le_bytes()); // checksum placeholder

        // CSR offset sections lead with their implicit 0 entry.
        let zero = 0u64.to_le_bytes();
        let sections: [Vec<u8>; 14] = [
            self.product_quality,
            self.reviewer_class,
            self.reviewer_campaign,
            self.reviewer_expert,
            self.review_reviewer,
            self.review_product,
            self.review_round,
            self.review_stars,
            self.review_length,
            self.review_upvotes,
            prepend(zero.to_vec(), self.member_offsets),
            self.members,
            prepend(zero.to_vec(), self.target_offsets),
            self.targets,
        ];
        for section in sections {
            buf.extend_from_slice(&section);
            drop(section); // free each column as soon as it is copied
        }

        let checksum = fnv_words(&buf[HEADER_LEN..]);
        buf[64..72].copy_from_slice(&checksum.to_le_bytes());
        ColumnarTrace {
            buf,
            header: Header { checksum, ..header },
        }
    }
}

/// `head` followed by `tail` (CSR offset sections store the implicit
/// leading zero only in the file image, not while building).
fn prepend(mut head: Vec<u8>, tail: Vec<u8>) -> Vec<u8> {
    head.extend_from_slice(&tail);
    head
}

/// Writes `trace` to `path` in `dcc-trace-col/2` form.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on filesystem failures.
pub fn write_trace_columnar(trace: &TraceDataset, path: &Path) -> Result<(), TraceError> {
    ColumnarTrace::from_dataset(trace).write_file(path)
}

/// Loads a `dcc-trace-col/2` file.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on filesystem failures and
/// [`TraceError::Corrupt`] when validation rejects the image.
pub fn read_trace_columnar(path: &Path) -> Result<ColumnarTrace, TraceError> {
    ColumnarTrace::from_bytes(fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticConfig;

    fn small() -> TraceDataset {
        SyntheticConfig::small(17).generate()
    }

    fn assert_same(a: &TraceDataset, b: &TraceDataset) {
        assert_eq!(a.products(), b.products());
        assert_eq!(a.reviewers(), b.reviewers());
        assert_eq!(a.reviews(), b.reviews());
        assert_eq!(a.campaigns(), b.campaigns());
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let trace = small();
        let col = ColumnarTrace::from_dataset(&trace);
        let back = col.to_dataset().unwrap();
        assert_same(&trace, &back);
        // Fields survive with exact bits, not just approximate values.
        for (x, y) in trace.reviews().iter().zip(back.reviews()) {
            assert_eq!(x.stars.to_bits(), y.stars.to_bits());
            assert_eq!(x.upvotes.to_bits(), y.upvotes.to_bits());
        }
    }

    #[test]
    fn file_roundtrip_and_info_counts() {
        let trace = small();
        let path = std::env::temp_dir().join(format!("dcc_col_rt_{}.dcol", std::process::id()));
        write_trace_columnar(&trace, &path).unwrap();
        let col = read_trace_columnar(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(col.n_products(), trace.products().len());
        assert_eq!(col.n_reviewers(), trace.reviewers().len());
        assert_eq!(col.n_reviews(), trace.reviews().len());
        assert_eq!(col.n_campaigns(), trace.campaigns().len());
        assert_same(&trace, &col.to_dataset().unwrap());
    }

    #[test]
    fn encoding_is_deterministic() {
        let trace = small();
        let a = ColumnarTrace::from_dataset(&trace);
        let b = ColumnarTrace::from_dataset(&trace);
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn columns_view_matches_rows() {
        let trace = small();
        let col = ColumnarTrace::from_dataset(&trace);
        let cols = col.columns();
        assert_eq!(cols.review_stars.len(), trace.reviews().len());
        for (i, r) in trace.reviews().iter().enumerate().take(50) {
            assert_eq!(cols.review_reviewer.get(i), Some(r.reviewer.index() as u64));
            assert_eq!(
                cols.review_stars.get(i).map(f64::to_bits),
                Some(r.stars.to_bits())
            );
            assert_eq!(cols.review_length.get(i), Some(r.length_chars as u64));
        }
        for (i, r) in trace.reviewers().iter().enumerate().take(50) {
            assert_eq!(cols.reviewer_class[i], class_to_u8(r.class));
        }
        // CSR membership matches campaigns.
        for (c, campaign) in trace.campaigns().iter().enumerate() {
            let lo = cols.campaign_member_offsets.get(c).unwrap() as usize;
            let hi = cols.campaign_member_offsets.get(c + 1).unwrap() as usize;
            let members: Vec<usize> = (lo..hi)
                .map(|i| cols.campaign_members.get(i).unwrap() as usize)
                .collect();
            let want: Vec<usize> = campaign.members.iter().map(|m| m.index()).collect();
            assert_eq!(members, want);
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let col = ColumnarTrace::from_dataset(&small());
        let bytes = col.as_bytes();
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 9, bytes.len() - 1] {
            let err = ColumnarTrace::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let col = ColumnarTrace::from_dataset(&small());

        let mut bad_magic = col.as_bytes().to_vec();
        bad_magic[0] ^= 0xff;
        let err = ColumnarTrace::from_bytes(bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        let mut bad_version = col.as_bytes().to_vec();
        bad_version[8] = 99;
        let err = ColumnarTrace::from_bytes(bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Inflate a count: the body no longer matches the header.
        let mut bad_count = col.as_bytes().to_vec();
        bad_count[16..24].copy_from_slice(&(col.n_products() as u64 + 7).to_le_bytes());
        let err = ColumnarTrace::from_bytes(bad_count).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
    }

    /// A 1,762-byte file whose 1,690-byte body ends in three leftover
    /// words after its last 32-byte block and a 2-byte tail, so every
    /// path of the checksum runs.
    fn tiny_file() -> Vec<u8> {
        let mut b = ColumnarBuilder::new();
        for p in 0..12 {
            b.push_product(1.0 + f64::from(p) / 3.0);
        }
        let (h, c) = (WorkerClass::Honest, WorkerClass::CollusiveMalicious);
        for (class, campaign, expert) in [
            (h, None, true),
            (c, Some(0), false),
            (h, None, false),
            (c, Some(0), false),
            (c, Some(1), false),
        ] {
            b.push_reviewer(class, campaign, expert);
        }
        for v in 0..30u32 {
            let (stars, upvotes) = (f64::from(v % 5) + 1.0, f64::from(v) * 0.25);
            let v = v as usize;
            b.push_review(v % 5, v % 12, v / 10, stars, 40 + v, upvotes);
        }
        b.push_campaign([1, 3], [2, 5]);
        b.push_campaign([4], [7, 9]);
        let bytes = b.finish().as_bytes().to_vec();
        assert_eq!(bytes.len(), HEADER_LEN + 1690);
        bytes
    }

    /// Every single-bit flip is refused, except in the reserved header
    /// field: no reader reads it, so a flip there decodes the same trace.
    #[test]
    fn every_single_bit_flip_is_refused() {
        let bytes = tiny_file();
        let want = ColumnarTrace::from_bytes(bytes.clone())
            .unwrap()
            .to_dataset()
            .unwrap();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let outcome = ColumnarTrace::from_bytes(flipped);
                if (12..16).contains(&at) {
                    assert_same(&outcome.unwrap().to_dataset().unwrap(), &want);
                    continue;
                }
                let err = outcome.unwrap_err();
                assert!(
                    matches!(err, TraceError::Corrupt(_)),
                    "byte {at} bit {bit}: {err}"
                );
                if at >= HEADER_LEN {
                    assert!(err.to_string().contains("checksum"), "{err}");
                }
            }
        }
    }

    /// How many pairs of body words, with bit 63 flipped in both, `hash`
    /// maps to the unflipped body's hash.
    fn top_bit_pairs_missed(body: &[u8], hash: fn(&[u8]) -> u64) -> (usize, usize) {
        let want = hash(body);
        let words = body.len() / 8;
        let mut flipped = body.to_vec();
        let (mut pairs, mut missed) = (0, 0);
        for i in 0..words {
            flipped[8 * i + 7] ^= 0x80;
            for j in i + 1..words {
                flipped[8 * j + 7] ^= 0x80;
                pairs += 1;
                missed += usize::from(hash(&flipped) == want);
                flipped[8 * j + 7] ^= 0x80;
            }
            flipped[8 * i + 7] ^= 0x80;
        }
        (missed, pairs)
    }

    /// Plain FNV over 64-bit words: no xor-shift, so a difference in bit
    /// 63 never leaves bit 63.
    fn plain_word_fnv(bytes: &[u8]) -> u64 {
        bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
            let mut b = [0u8; 8];
            b[..w.len()].copy_from_slice(w);
            (h ^ u64::from_le_bytes(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn every_pair_of_top_bit_flips_changes_the_checksum() {
        let bytes = tiny_file();
        let body = &bytes[HEADER_LEN..];
        assert_eq!(top_bit_pairs_missed(body, fnv_words), (0, 211 * 210 / 2));
        // The control: without the xor-shift every such pair cancels.
        assert_eq!(
            top_bit_pairs_missed(body, plain_word_fnv),
            (211 * 210 / 2, 211 * 210 / 2)
        );
    }

    #[test]
    fn version_1_files_are_refused_with_a_convert_hint() {
        let mut bytes = ColumnarTrace::from_dataset(&small()).as_bytes().to_vec();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        // A `/1` file carries the byte-serial FNV-1a of its body.
        let mut v1_checksum = dcc_numerics::Fnv::new();
        v1_checksum.write_bytes(&bytes[HEADER_LEN..]);
        bytes[64..72].copy_from_slice(&v1_checksum.finish().to_le_bytes());
        let err = ColumnarTrace::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        let message = err.to_string();
        assert!(message.contains("version 1"), "{message}");
        assert!(message.contains("dcc trace convert"), "{message}");
    }

    #[test]
    fn reads_far_past_the_end_are_none() {
        let col = ColumnarTrace::from_dataset(&small());
        let cols = col.columns();
        let mut builder = ColumnarBuilder::new();
        builder.push_product(2.5);
        assert_eq!(builder.product_quality(0), Some(2.5));
        for i in [1 << 61, usize::MAX] {
            assert_eq!(cols.review_reviewer.get(i), None);
            assert_eq!(cols.review_stars.get(i), None);
            assert_eq!(builder.product_quality(i), None);
        }
    }

    #[test]
    fn corrupt_csr_offsets_are_rejected_at_materialization() {
        let trace = small();
        assert!(!trace.campaigns().is_empty());
        let col = ColumnarTrace::from_dataset(&trace);
        let [.., mo, _, _, _] = {
            // Recompute the member-offsets range through the public view:
            // poke the second offset (campaign 0's end) to a huge value.
            col.ranges()
        };
        let mut bytes = col.as_bytes().to_vec();
        let at = mo.start + 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // Fix the checksum so only the CSR is inconsistent.
        let sum = fnv_words(&bytes[HEADER_LEN..]);
        bytes[64..72].copy_from_slice(&sum.to_le_bytes());
        let poked = ColumnarTrace::from_bytes(bytes).unwrap();
        let err = poked.to_dataset().unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_trace_columnar(Path::new("/nonexistent/dcc.dcol")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = TraceDataset::new(Vec::new(), Vec::new(), Vec::new(), Vec::new()).unwrap();
        let col = ColumnarTrace::from_dataset(&trace);
        let back = col.to_dataset().unwrap();
        assert!(back.products().is_empty());
        assert!(back.reviewers().is_empty());
    }
}
