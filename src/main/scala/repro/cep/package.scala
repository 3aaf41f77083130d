package repro

package object cep {
  /** The former name of the order-plan engine: order plans run on [[TreeEngine]]. */
  type NfaEngine = TreeEngine
}
