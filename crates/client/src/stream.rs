//! Chunked, buffer-reusing sample streams.

use crate::Client;
use irs_core::{GridEndpoint, Interval, ItemId, Operation, QueryError};

/// How many draws a stream fetches from its backend per refill.
const DEFAULT_CHUNK: usize = 512;

/// An iterator of i.i.d. samples from one query's result set, created
/// by [`Client::sample_stream`] / [`Client::weighted_sample_stream`].
///
/// Draws are **independent and unbounded**: the stream keeps yielding
/// for as long as the result set is non-empty (cap it with
/// [`Iterator::take`], or pull whole chunks with
/// [`SampleStream::draw_into`]). It ends (`None` / an empty
/// `draw_into`) only when the result set is empty or the backend fails
/// mid-stream; [`SampleStream::error`] distinguishes the two.
///
/// Draws are fetched in chunks of [`SampleStream::with_chunk`] size,
/// so the query's candidate computation (phase 1 of the paper's cost
/// split) is paid once per chunk, not per draw. Each refill briefly
/// takes the backend's read side and samples the then-current data —
/// on a live backend, draws within one chunk come from one snapshot,
/// and concurrent writers interleave between chunks. Every refill is
/// one engine batch, so it draws from a fresh stream (successive
/// streams, and streams after a restart, never replay each other) and
/// hands back one `Vec` of draws; the stream's internal buffer (and,
/// with `draw_into`, the caller's buffer) keeps its capacity across
/// refills, so steady-state drawing allocates once per chunk, not per
/// draw.
pub struct SampleStream<'a, E> {
    client: &'a Client<E>,
    q: Interval<E>,
    weighted: bool,
    chunk: usize,
    /// Pending draws, yielded from the back.
    buf: Vec<ItemId>,
    exhausted: bool,
    error: Option<QueryError>,
}

/// Builds a stream over `client`'s backend; `op` is already
/// capability-checked by the caller.
pub(crate) fn new_stream<E: GridEndpoint>(
    client: &Client<E>,
    q: Interval<E>,
    op: Operation,
) -> SampleStream<'_, E> {
    SampleStream {
        client,
        q,
        weighted: op == Operation::WeightedSample,
        chunk: DEFAULT_CHUNK,
        buf: Vec::new(),
        exhausted: false,
        error: None,
    }
}

impl<E: GridEndpoint> SampleStream<'_, E> {
    /// Sets how many draws are fetched from the backend per refill
    /// (clamped to ≥ 1; default 512). Larger chunks amortize phase-1
    /// work and the engine's per-batch overhead.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The backend failure that ended the stream, if any. `None` after
    /// the stream ends means the result set was genuinely empty.
    pub fn error(&self) -> Option<&QueryError> {
        self.error.as_ref()
    }

    /// Fills `out` (cleared first) with the next chunk of draws —
    /// up to [`SampleStream::with_chunk`] of them — reusing `out`'s
    /// capacity, so a prepare-once-draw-many loop that recycles one
    /// buffer never grows it:
    ///
    /// ```
    /// # use irs_client::Irs;
    /// # use irs_engine::IndexKind;
    /// # use irs_core::{Interval, ItemId};
    /// # let data: Vec<_> = (0..500i64).map(|i| Interval::new(i, i + 20)).collect();
    /// # let client = Irs::builder().kind(IndexKind::Ait).build(&data)?;
    /// let mut stream = client.sample_stream(Interval::new(100, 200))?;
    /// let mut buf: Vec<ItemId> = Vec::new();
    /// for _round in 0..4 {
    ///     stream.draw_into(&mut buf); // refills in place, `buf` never regrows
    ///     assert!(!buf.is_empty());
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// `out` left empty means the stream has ended: the result set is
    /// empty, or the backend failed ([`SampleStream::error`] tells
    /// which). Draws already buffered by iterator use are handed over
    /// first, so mixing `next()` and `draw_into` never drops or
    /// duplicates a draw.
    pub fn draw_into(&mut self, out: &mut Vec<ItemId>) {
        out.clear();
        // Hand over anything the iterator side buffered.
        out.append(&mut self.buf);
        if self.exhausted || out.len() >= self.chunk {
            return;
        }
        let before = out.len();
        let need = self.chunk - before;
        self.refill_into(need, out);
        if out.len() == before {
            // Empty refill: the result set is empty (or the backend
            // failed — see `error()`); either way the stream is over.
            self.exhausted = true;
        }
    }

    /// Appends up to `n` fresh draws from the backend to `out`. The
    /// engine holds its read locks only for this one batch, so writers
    /// interleave between chunks instead of starving behind a
    /// long-lived stream.
    fn refill_into(&mut self, n: usize, out: &mut Vec<ItemId>) {
        let engine = self.client.engine();
        let drawn = if self.weighted {
            engine.sample_weighted(self.q, n)
        } else {
            engine.sample(self.q, n)
        };
        match drawn {
            // Move the engine's draw vector rather than copying it;
            // `append` leaves `out`'s capacity in place for the next
            // refill.
            Ok(mut ids) => out.append(&mut ids),
            Err(e) => self.error = Some(e),
        }
    }
}

impl<E: GridEndpoint> Iterator for SampleStream<'_, E> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        if let Some(id) = self.buf.pop() {
            return Some(id);
        }
        if self.exhausted {
            return None;
        }
        // Refill the internal buffer in place (it keeps its capacity
        // across refills).
        let mut buf = std::mem::take(&mut self.buf);
        self.refill_into(self.chunk, &mut buf);
        self.buf = buf;
        if self.buf.is_empty() {
            // Empty refill: the result set is empty (or the backend
            // failed — see `error()`); either way the stream is over.
            self.exhausted = true;
            return None;
        }
        self.buf.pop()
    }
}
