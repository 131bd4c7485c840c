//! Offline stand-in for `rayon`: every parallel iterator is the matching
//! std iterator, run inline on the calling thread, and the pool reports one
//! thread. Results are identical; only the fan-out is gone.

pub fn current_num_threads() -> usize {
    1
}

pub mod prelude {
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<I: IntoIterator> IntoParallelIterator for I {}

    pub trait ParallelSlice<T> {
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
    }
    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
    }

    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, chunk: usize) -> std::slice::ChunksMut<'_, T>;
    }
    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk)
        }
    }
}
