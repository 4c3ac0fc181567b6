pub struct A;
#[cfg(test)]
fn dropped_with_its_cfg_line() {}
	
impl A {
    pub fn g(&self) {}
}
