//! Fluent construction of [`Program`]s (C-BUILDER).

use crate::names::NameIndex;
use crate::{CellId, CellProgram, MessageDecl, MessageId, ModelError, Op, Program};

/// A value that can name a cell while building: a [`CellId`], a raw index,
/// or a cell name string.
pub trait CellRef {
    /// Resolves to a concrete [`CellId`] against the builder's cell table.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCell`] or [`ModelError::CellOutOfRange`]
    /// if the reference does not resolve.
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError>;
}

impl CellRef for CellId {
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError> {
        if self.index() < builder.cells.len() {
            Ok(*self)
        } else {
            Err(ModelError::CellOutOfRange {
                cell: *self,
                num_cells: builder.cells.len(),
            })
        }
    }
}

impl CellRef for u32 {
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError> {
        CellId::new(*self).resolve(builder)
    }
}

impl CellRef for &str {
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError> {
        builder
            .cell_index
            .find(builder.cell_names(), self)
            .map(CellId::new)
            .ok_or_else(|| ModelError::UnknownCell {
                name: (*self).to_owned(),
            })
    }
}

/// Incrementally builds a validated [`Program`].
///
/// Cells are created up front (with default names `c0`, `c1`, …, optionally
/// renamed); messages are declared with [`ProgramBuilder::message`]; ops are
/// appended with [`ProgramBuilder::write`] / [`ProgramBuilder::read`] (or
/// their `*_n` repetition variants, handy for the paper's `W(X)…` sequences).
/// [`ProgramBuilder::build`] runs full [`Program`] validation.
///
/// # Examples
///
/// Fig. 6 of the paper — messages form a cycle yet the program is fine:
///
/// ```
/// use systolic_model::ProgramBuilder;
///
/// # fn main() -> Result<(), systolic_model::ModelError> {
/// let mut b = ProgramBuilder::new(4);
/// b.message("A", 0, 1)?;
/// b.message("B", 1, 2)?;
/// b.message("C", 2, 3)?;
/// b.message("D", 3, 0)?;
/// b.write(0, "A")?.read(0, "D")?;
/// b.read(1, "A")?.write(1, "B")?;
/// b.read(2, "B")?.write(2, "C")?;
/// b.read(3, "C")?.write(3, "D")?;
/// let program = b.build()?;
/// assert_eq!(program.total_words(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    cells: Vec<(String, Vec<Op>)>,
    messages: Vec<MessageDecl>,
    /// Resolves cell names (the first of duplicate names wins; the
    /// duplicate is reported by [`Program::new`] at build time).
    cell_index: NameIndex,
    /// Resolves message names.
    message_index: NameIndex,
}

impl ProgramBuilder {
    /// Creates a builder for an array of `num_cells` cells named
    /// `c0`…`c{n-1}`.
    #[must_use]
    pub fn new(num_cells: usize) -> Self {
        let mut builder = ProgramBuilder {
            cells: (0..num_cells)
                .map(|i| (format!("c{i}"), Vec::new()))
                .collect(),
            messages: Vec::new(),
            cell_index: NameIndex::default(),
            message_index: NameIndex::default(),
        };
        builder.cell_index = NameIndex::over(builder.cell_names());
        builder
    }

    /// Renames all cells at once (e.g. `["host", "c1", "c2", "c3"]`).
    ///
    /// # Panics
    ///
    /// Panics if the number of names differs from the number of cells.
    pub fn name_cells<S: Into<String>>(&mut self, names: impl IntoIterator<Item = S>) -> &mut Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert_eq!(
            names.len(),
            self.cells.len(),
            "must provide exactly one name per cell"
        );
        for (slot, name) in self.cells.iter_mut().zip(names) {
            slot.0 = name;
        }
        self.cell_index = NameIndex::over(self.cell_names());
        self
    }

    /// Number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    fn cell_names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.cells.iter().map(|(name, _)| name.as_str())
    }

    /// Declares a message and returns its id.
    ///
    /// # Errors
    ///
    /// Fails if `sender`/`receiver` do not resolve, if they are equal, or if
    /// `name` is already declared.
    pub fn message(
        &mut self,
        name: impl Into<String>,
        sender: impl CellRef,
        receiver: impl CellRef,
    ) -> Result<MessageId, ModelError> {
        let name = name.into();
        if self.message_id(&name).is_some() {
            return Err(ModelError::DuplicateMessage { name });
        }
        let s = sender.resolve(self)?;
        let r = receiver.resolve(self)?;
        let id = self.messages.len() as u32;
        self.messages.push(MessageDecl::new(name, s, r)?);
        let names = self.messages.iter().map(MessageDecl::name);
        self.message_index
            .push(self.messages[id as usize].name(), id, names);
        Ok(MessageId::new(id))
    }

    /// Looks up a previously declared message by name.
    #[must_use]
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_index
            .find(self.messages.iter().map(MessageDecl::name), name)
            .map(MessageId::new)
    }

    fn resolve_message(&self, name: &str) -> Result<MessageId, ModelError> {
        self.message_id(name)
            .ok_or_else(|| ModelError::UnknownMessage {
                name: name.to_owned(),
            })
    }

    /// Appends one `W(message)` to `cell`'s program.
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve.
    pub fn write(&mut self, cell: impl CellRef, message: &str) -> Result<&mut Self, ModelError> {
        self.write_n(cell, message, 1)
    }

    /// Appends one `R(message)` to `cell`'s program.
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve.
    pub fn read(&mut self, cell: impl CellRef, message: &str) -> Result<&mut Self, ModelError> {
        self.read_n(cell, message, 1)
    }

    /// Appends `n` consecutive `W(message)` ops — the paper's `W(X)…`
    /// sequence notation (Fig. 7).
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve.
    pub fn write_n(
        &mut self,
        cell: impl CellRef,
        message: &str,
        n: usize,
    ) -> Result<&mut Self, ModelError> {
        let c = cell.resolve(self)?;
        let m = self.resolve_message(message)?;
        self.cells[c.index()]
            .1
            .extend(std::iter::repeat_n(Op::write(m), n));
        Ok(self)
    }

    /// Appends `n` consecutive `R(message)` ops.
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve.
    pub fn read_n(
        &mut self,
        cell: impl CellRef,
        message: &str,
        n: usize,
    ) -> Result<&mut Self, ModelError> {
        let c = cell.resolve(self)?;
        let m = self.resolve_message(message)?;
        self.cells[c.index()]
            .1
            .extend(std::iter::repeat_n(Op::read(m), n));
        Ok(self)
    }

    /// Appends an already-constructed op to `cell`'s program.
    ///
    /// # Errors
    ///
    /// Fails if the cell does not resolve. (The op's message is validated at
    /// [`ProgramBuilder::build`] time.)
    pub fn push_op(&mut self, cell: impl CellRef, op: Op) -> Result<&mut Self, ModelError> {
        let c = cell.resolve(self)?;
        self.cells[c.index()].1.push(op);
        Ok(self)
    }

    /// Finishes construction, running full [`Program`] validation.
    ///
    /// # Errors
    ///
    /// Propagates every [`Program::new`] validation error.
    pub fn build(&self) -> Result<Program, ModelError> {
        let (names, ops): (Vec<String>, Vec<Vec<Op>>) = self.cells.iter().cloned().unzip();
        Program::new(
            names,
            self.messages.clone(),
            ops.into_iter().map(CellProgram::new).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_by_index_and_name() {
        let mut b = ProgramBuilder::new(3);
        b.name_cells(["host", "c1", "c2"]);
        b.message("XA", "host", "c1").unwrap();
        b.message("XB", 1u32, 2u32).unwrap();
        b.write_n("host", "XA", 2).unwrap();
        b.read("c1", "XA").unwrap().read(1u32, "XA").unwrap();
        b.write("c1", "XB").unwrap().write("c1", "XB").unwrap();
        b.read_n("c2", "XB", 2).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.cell_name(CellId::new(0)), "host");
        assert_eq!(p.word_count(MessageId::new(0)), 2);
        assert_eq!(p.word_count(MessageId::new(1)), 2);
    }

    #[test]
    fn unknown_cell_name_fails() {
        let mut b = ProgramBuilder::new(2);
        let err = b.message("A", "nope", "c1").unwrap_err();
        assert!(matches!(err, ModelError::UnknownCell { .. }));
    }

    #[test]
    fn out_of_range_index_fails() {
        let mut b = ProgramBuilder::new(2);
        let err = b.message("A", 5u32, 1u32).unwrap_err();
        assert!(matches!(err, ModelError::CellOutOfRange { .. }));
    }

    #[test]
    fn duplicate_message_fails_eagerly() {
        let mut b = ProgramBuilder::new(2);
        b.message("A", 0u32, 1u32).unwrap();
        let err = b.message("A", 1u32, 0u32).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateMessage { .. }));
    }

    #[test]
    fn unknown_message_in_op_fails() {
        let mut b = ProgramBuilder::new(2);
        let err = b.write(0u32, "ghost").unwrap_err();
        assert!(matches!(err, ModelError::UnknownMessage { .. }));
    }

    #[test]
    fn build_runs_full_validation() {
        let mut b = ProgramBuilder::new(2);
        b.message("A", 0u32, 1u32).unwrap();
        b.write(0u32, "A").unwrap();
        // missing the matching read
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::WordCountMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "one name per cell")]
    fn name_cells_wrong_arity_panics() {
        let mut b = ProgramBuilder::new(2);
        b.name_cells(["only-one"]);
    }
}
