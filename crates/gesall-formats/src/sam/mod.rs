//! SAM — the Sequence Alignment/Map record model.
//!
//! A SAM dataset is a header (reference sequence dictionary, read groups,
//! sort order, program lines) followed by one record per *alignment* of a
//! read: a read mapped to `m` reference locations contributes `m` records
//! (one primary, `m-1` secondary). The attributes the paper's partitioning
//! toolkit relies on (Fig. 3) are first-class here:
//!
//! * `QNAME` — read name, shared by both mates of a pair;
//! * `POS` — leftmost mapping position;
//! * `PNEXT` — mate's mapping position;
//! * `CIGAR` — per-base mapping detail including soft/hard clips;
//! * the derived **5′ unclipped end**, computed from `POS` + `CIGAR`, on
//!   which MarkDuplicates' compound partitioning is keyed.

pub mod cigar;
pub mod flags;
pub mod header;
pub mod record;
pub mod text;
pub mod view;

pub use cigar::{Cigar, CigarOp};
pub use flags::Flags;
pub use header::{ReadGroup, ReferenceSeq, SamHeader, SortOrder};
pub use record::SamRecord;
pub use view::{QualitiesMut, SamView};
